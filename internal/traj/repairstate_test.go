package traj

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"rlts/internal/geo"
)

func TestRepairStateCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	rp := NewRepairer(RepairConfig{Window: 12, MaxSpeed: 9, DupRadius: 4, AverageDups: true})
	for i := 0; i < 250; i++ {
		rp.Push(geo.Pt(r.NormFloat64()*4, r.NormFloat64()*4, float64(i/2)+r.NormFloat64()*4))
	}
	st := rp.ExportState()
	blob := st.AppendBinary(nil)
	back, err := DecodeRepairState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("round trip differs:\n%+v\n%+v", st, back)
	}
	// And the decoded state resumes.
	if _, err := ResumeRepairer(back); err != nil {
		t.Fatal(err)
	}
	// Empty-window state round-trips too.
	empty := NewRepairer(RepairConfig{}).ExportState()
	back, err = DecodeRepairState(empty.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, back) {
		t.Fatal("empty state round trip differs")
	}
}

func TestDecodeRepairStateTotal(t *testing.T) {
	rp := NewRepairer(RepairConfig{Window: 6, MaxSpeed: 3})
	for i := 0; i < 40; i++ {
		rp.Push(geo.Pt(float64(i), 0, float64(i)))
	}
	blob := rp.ExportState().AppendBinary(nil)
	// Every truncation must error cleanly.
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeRepairState(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage must error.
	if _, err := DecodeRepairState(append(append([]byte{}, blob...), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Wrong version must error.
	bad := append([]byte{}, blob...)
	bad[0] = 99
	if _, err := DecodeRepairState(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	// A hostile pending count must not drive allocation.
	big := append([]byte{}, blob...)
	// pending count sits after version(1) + window(8) + 2 floats(16) +
	// avg(1) + seq(8) + maxRelSeq(8) = offset 42.
	big[42], big[43], big[44], big[45] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeRepairState(big); err == nil {
		t.Fatal("hostile pending count accepted")
	}
}

// TestDecodeRepairStateChecksCountBeforeAlloc: a 46-byte blob declaring
// 1<<20 pending fixes (32 MiB of them) must be rejected before the
// decoder allocates room for them.
func TestDecodeRepairStateChecksCountBeforeAlloc(t *testing.T) {
	// Header up to the pending count: version, window, two floats, the
	// average flag and both sequence numbers — 42 bytes.
	blob := NewRepairer(RepairConfig{}).ExportState().AppendBinary(nil)[:42]
	blob = binary.LittleEndian.AppendUint32(blob, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRepairState(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("blob declaring 1<<20 pending fixes with none present decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("decoding a %d-byte blob allocated %d bytes before failing", len(blob), grew)
	}
}
