package wire

import (
	"math"
	"strings"
	"testing"

	"rlts/internal/geo"
)

// sample is one of every encoding, written with the Append functions.
func sample() []byte {
	b := append([]byte(nil), 7)
	b = AppendBool(b, true)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<40+3)
	neg := int64(-5)
	b = AppendU64(b, uint64(neg))
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendPoint(b, geo.Point{X: 1.5, Y: -2, T: 3})
	b = AppendU64(b, math.MaxInt32)
	b = AppendStr(b, "rlts+/sed")
	b = AppendU32(b, 2) // a Len(4) section of two elements
	b = AppendU32(b, 10)
	b = AppendU32(b, 20)
	return AppendBlob(b, []byte("tail"))
}

// readSample reads sample() back in order, checking each value.
func readSample(t *testing.T, r *Reader, check bool) {
	u8, bl, u32, u64, i64 := r.U8(), r.Bool(), r.U32(), r.U64(), r.I64()
	f, p, c, s := r.F64(), r.Point(), r.Count(), r.Str(16)
	n := r.Len(4)
	var elems []uint32
	for i := 0; i < n; i++ {
		elems = append(elems, r.U32())
	}
	blob := r.Blob()
	if !check {
		return
	}
	if u8 != 7 || !bl || u32 != 0xdeadbeef || u64 != 1<<40+3 || i64 != -5 ||
		math.Float64bits(f) != math.Float64bits(math.Copysign(0, -1)) ||
		p != (geo.Point{X: 1.5, Y: -2, T: 3}) || c != math.MaxInt32 || s != "rlts+/sed" ||
		len(elems) != 2 || elems[0] != 10 || elems[1] != 20 || string(blob) != "tail" {
		t.Fatalf("round trip: %v %v %#x %d %d %g %v %d %q %v %q", u8, bl, u32, u64, i64, f, p, c, s, elems, blob)
	}
}

func TestReaderRoundTrip(t *testing.T) {
	b := sample()
	r := NewReader(b)
	readSample(t, r, true)
	if err := r.Done(); err != nil {
		t.Fatalf("full read: %v", err)
	}
}

// TestReaderTruncatedAtEveryOffset: every proper prefix of a valid
// encoding fails, and once failed the reader returns zeros.
func TestReaderTruncatedAtEveryOffset(t *testing.T) {
	b := sample()
	for n := 0; n < len(b); n++ {
		r := NewReader(b[:n])
		readSample(t, r, false)
		if err := r.Done(); err == nil {
			t.Fatalf("prefix of %d/%d bytes read without error", n, len(b))
		}
		if r.U64() != 0 || r.Take(0) != nil || r.Str(10) != "" {
			t.Fatalf("prefix %d: reads after an error returned data", n)
		}
	}
}

func TestReaderGuards(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string // substring of Done's error; "" means a clean, complete read
	}{
		{"take negative", []byte{1, 2}, func(r *Reader) { r.Take(-1) }, "truncated"},
		{"take past end", []byte{1, 2}, func(r *Reader) { r.Take(3) }, "truncated"},
		{"take exact", []byte{1, 2}, func(r *Reader) { r.Take(2) }, ""},
		{"bool 0", []byte{0}, func(r *Reader) { r.Bool() }, ""},
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }, "invalid bool"},
		{"count at cap", AppendU64(nil, math.MaxInt32), func(r *Reader) { r.Count() }, ""},
		{"count over cap", AppendU64(nil, math.MaxInt32+1), func(r *Reader) { r.Count() }, "implausible count"},
		{"count negative", AppendU64(nil, math.MaxUint64), func(r *Reader) { r.Count() }, "implausible count"},
		{"str at limit", AppendStr(nil, "abcd"), func(r *Reader) { r.Str(4) }, ""},
		{"str over limit", AppendStr(nil, "abcde"), func(r *Reader) { r.Str(4) }, "exceeds limit"},
		{"str truncated", AppendStr(nil, "abcd")[:3], func(r *Reader) { r.Str(4) }, "truncated"},
		{"len fits", append(AppendU32(nil, 2), make([]byte, 16)...), func(r *Reader) { r.Take(8 * r.Len(8)) }, ""},
		{"len one short", append(AppendU32(nil, 2), make([]byte, 15)...), func(r *Reader) { r.Len(8) }, "declared"},
		{"len max u32", AppendU32(nil, math.MaxUint32), func(r *Reader) { r.Len(48) }, "declared"},
		{"blob over", append(AppendU32(nil, 5), "abc"...), func(r *Reader) { r.Blob() }, "declared"},
		{"trailing bytes", []byte{1, 2, 3}, func(r *Reader) { r.U8() }, "2 trailing bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(c.in)
			c.read(r)
			err := r.Done()
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}
