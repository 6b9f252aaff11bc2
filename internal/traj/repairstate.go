package traj

// Binary codec for RepairState, built like core.StreamerState's on the
// shared internal/wire cursor: little-endian, length-prefixed, versioned,
// total on garbage. The HTTP
// session store embeds this blob in its spill envelope (as a versioned
// extension — see server spill.go), so a spilled session's repair window
// survives a restart bit-identically.
//
// Layout (all little-endian):
//
//	u8      codec version (1)
//	u64     cfg.Window (two's-complement int64)
//	f64     cfg.MaxSpeed
//	f64     cfg.DupRadius
//	u8      cfg.AverageDups (0/1)
//	u64     seq
//	u64     maxRelSeq
//	u32     pending count, then per fix: f64 x, f64 y, f64 t, u64 seq
//	u8      hasHeld; when 1: f64 x, f64 y, f64 t (first fix),
//	        f64 sumX, f64 sumY, u64 heldN
//	u8      hasLast; when 1: f64 x, f64 y, f64 t
//	u64 ×7  report (pushed, emitted, nonFinite, late, reordered,
//	        duplicates, outliers; two's-complement int64)
//
// Floats are raw IEEE-754 bits, so NaN payloads round-trip exactly (the
// validity checks happen in ResumeRepairer, not here).

import (
	"fmt"

	"rlts/internal/wire"
)

// RepairStateVersion is the current repair-state codec version.
const RepairStateVersion = 1

// pendingFixBytes is the encoded size of one pending fix.
const pendingFixBytes = 4 * 8

// AppendBinary appends the state's binary encoding to b.
func (st *RepairState) AppendBinary(b []byte) []byte {
	b = append(b, RepairStateVersion)
	b = wire.AppendU64(b, uint64(st.Cfg.Window))
	b = wire.AppendF64(b, st.Cfg.MaxSpeed)
	b = wire.AppendF64(b, st.Cfg.DupRadius)
	b = wire.AppendBool(b, st.Cfg.AverageDups)
	b = wire.AppendU64(b, st.Seq)
	b = wire.AppendU64(b, st.MaxRelSeq)
	b = wire.AppendU32(b, uint32(len(st.Pending)))
	for _, f := range st.Pending {
		b = wire.AppendPoint(b, f.P)
		b = wire.AppendU64(b, f.Seq)
	}
	b = wire.AppendBool(b, st.HasHeld)
	if st.HasHeld {
		b = wire.AppendPoint(b, st.HeldFirst)
		b = wire.AppendF64(b, st.HeldSumX)
		b = wire.AppendF64(b, st.HeldSumY)
		b = wire.AppendU64(b, uint64(st.HeldN))
	}
	b = wire.AppendBool(b, st.HasLast)
	if st.HasLast {
		b = wire.AppendPoint(b, st.Last)
	}
	for _, v := range st.Report.fields() {
		b = wire.AppendU64(b, uint64(v))
	}
	return b
}

// DecodeRepairState parses a blob produced by AppendBinary. It is total:
// truncated, trailing-garbage or otherwise malformed input yields an
// error, never a panic, and the pending count is checked against the
// bytes present before anything is allocated for it. Semantic validity
// (heap property, balanced report, finite gate) is ResumeRepairer's job.
func DecodeRepairState(data []byte) (*RepairState, error) {
	d := wire.NewReader(data)
	if v := d.U8(); d.Err() == nil && v != RepairStateVersion {
		return nil, fmt.Errorf("traj: repair state version %d, want %d", v, RepairStateVersion)
	}
	st := &RepairState{}
	st.Cfg.Window = int(d.I64())
	st.Cfg.MaxSpeed = d.F64()
	st.Cfg.DupRadius = d.F64()
	st.Cfg.AverageDups = d.Bool()
	st.Seq = d.U64()
	st.MaxRelSeq = d.U64()
	if n := d.Len(pendingFixBytes); n > 0 {
		st.Pending = make([]PendingFixState, n)
		for i := range st.Pending {
			st.Pending[i] = PendingFixState{P: d.Point(), Seq: d.U64()}
		}
	}
	if st.HasHeld = d.Bool(); st.HasHeld {
		st.HeldFirst = d.Point()
		st.HeldSumX = d.F64()
		st.HeldSumY = d.F64()
		st.HeldN = int(d.I64())
	}
	if st.HasLast = d.Bool(); st.HasLast {
		st.Last = d.Point()
	}
	for _, f := range st.Report.fieldPtrs() {
		*f = int(d.I64())
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("traj: decode repair state: %w", err)
	}
	return st, nil
}

// fields returns the report counters in codec order.
func (r RepairReport) fields() [7]int {
	return [7]int{r.Pushed, r.Emitted, r.NonFinite, r.Late, r.Reordered, r.Duplicates, r.Outliers}
}

// fieldPtrs returns pointers to the report counters in codec order.
func (r *RepairReport) fieldPtrs() [7]*int {
	return [7]*int{&r.Pushed, &r.Emitted, &r.NonFinite, &r.Late, &r.Reordered, &r.Duplicates, &r.Outliers}
}
