// Package wire is the one bounds-checked little-endian cursor behind
// every binary state codec: the streamer state (core.StreamerState), the
// repair state (traj.RepairState) and the session spill envelope
// (server). Reader never panics on hostile input: a read past the end,
// an implausible count or an over-long string sets a sticky error and
// returns zeros, so a decoder reads a whole section and checks Err once.
// The Append functions are the matching writers.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"rlts/internal/geo"
)

// Reader decodes little-endian values from a byte slice.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Take returns the next n bytes (aliasing the input), or nil when fewer
// remain, n is negative, or an earlier read failed.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail("truncated at byte %d (need %d of %d)", r.off, n, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1, so every accepted encoding is
// the canonical one.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("invalid bool byte %d at byte %d", v, r.off-1)
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads raw IEEE-754 bits, so NaN payloads and -0 survive exactly.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Point reads x, y, t as three F64s.
func (r *Reader) Point() geo.Point { return geo.Point{X: r.F64(), Y: r.F64(), T: r.F64()} }

// Count reads a u64 that must fit a non-negative int32.
func (r *Reader) Count() int {
	v := r.U64()
	if v > math.MaxInt32 {
		r.fail("implausible count %d at byte %d", v, r.off)
		return 0
	}
	return int(v)
}

// Len reads a u32 element count and checks that count × elemBytes bytes
// remain before returning it, so the caller may allocate count elements
// without trusting the input's word for it. elemBytes must be positive.
func (r *Reader) Len(elemBytes int) int {
	n := uint64(r.U32())
	if rem := len(r.buf) - r.off; r.err == nil && n*uint64(elemBytes) > uint64(rem) {
		r.fail("%d elements of %d bytes declared, %d bytes remain", n, elemBytes, rem)
		return 0
	}
	return int(n)
}

// Blob reads a u32-length-prefixed byte string (aliasing the input).
func (r *Reader) Blob() []byte { return r.Take(r.Len(1)) }

// Str reads a u8-length-prefixed string of at most max bytes.
func (r *Reader) Str(max int) string {
	n := int(r.U8())
	if r.err == nil && n > max {
		r.fail("string of %d bytes exceeds limit %d", n, max)
	}
	return string(r.Take(n))
}

// Done fails the read if any bytes remain unread, and returns Err.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendF64 appends v's raw IEEE-754 bits.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendPoint appends p as x, y, t.
func AppendPoint(b []byte, p geo.Point) []byte {
	return AppendF64(AppendF64(AppendF64(b, p.X), p.Y), p.T)
}

// AppendBlob appends data with a u32 length prefix (the Blob encoding).
func AppendBlob(b, data []byte) []byte { return append(AppendU32(b, uint32(len(data))), data...) }

// AppendStr appends s with a u8 length prefix (the Str encoding); s must
// be at most 255 bytes.
func AppendStr(b []byte, s string) []byte { return append(append(b, byte(len(s))), s...) }
