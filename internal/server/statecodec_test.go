package server

import (
	"bytes"
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rlts/internal/buffer"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/rl"
	"rlts/internal/traj"
	"rlts/internal/wire"
)

// The golden encodings pin the three wire formats byte for byte: a spill
// file written by an earlier build must keep decoding, and a file written
// now must stay readable by an earlier build.
const (
	goldenStreamerHex = "0200000003050000000700000000000000010000000000000002000000000000000900000000000000000000000000e8" +
		"3f0000000000001a40000000000000f4bf00000000000018400300000000000000000000000000000000000000000000" +
		"000000000000000000000000000000000000000000ffffffffffffffff03000000000000000000000000000a40000000" +
		"000000f03f0000000000000840000000000000f83f000000000000000005000000000000000000000000001440000000" +
		"000000e0bf000000000000144000000000000000800100000000000000"
	goldenRepairHex = "0104000000000000000000000000002940000000000000e03f010b000000000000000a00000000000000020000000000" +
		"000000002240000000000000234000000000000022400900000000000000000000000000244000000000000025400000" +
		"0000000024400a0000000000000001000000000000204000000000000021400000000000002040000000000040304000" +
		"000000000031400200000000000000010000000000001c400000000000001e400000000000001c400b00000000000000" +
		"060000000000000001000000000000000000000000000000020000000000000001000000000000000000000000000000"
	goldenEnvelopeHex = "524c53530200000010303064656164626565663030636166650d726c74732d736b69702f736564fdffffffffffffff15" +
		"cd853dfe9c9717dd00000002000000030500000007000000000000000100000000000000020000000000000009000000" +
		"00000000000000000000e83f0000000000001a40000000000000f4bf0000000000001840030000000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000000ffffffffffffffff0300000000000000" +
		"0000000000000a40000000000000f03f0000000000000840000000000000f83f00000000000000000500000000000000" +
		"0000000000001440000000000000e0bf00000000000014400000000000000080010000000000000001f0000000010400" +
		"0000000000000000000000002940000000000000e03f010b000000000000000a00000000000000020000000000000000" +
		"002240000000000000234000000000000022400900000000000000000000000000244000000000000025400000000000" +
		"0024400a0000000000000001000000000000204000000000000021400000000000002040000000000040304000000000" +
		"000031400200000000000000010000000000001c400000000000001e400000000000001c400b00000000000000060000" +
		"000000000001000000000000000000000000000000020000000000000001000000000000000000000000000000be0f67" +
		"eb"
)

// goldenRecord is one fixed v2 spill record: a sampling streamer with a
// pending skip and three buffered entries (head, droppable, tail), plus a
// repair window holding two pending fixes and a held duplicate group.
func goldenRecord() *sessionRecord {
	return &sessionRecord{
		ID:         "00deadbeef00cafe",
		Key:        "rlts-skip/sed",
		Seed:       -3,
		LastActive: 1700000000123456789,
		State: &core.StreamerState{
			W: 5, Sample: true, Seen: 7, Skip: 1, Skipped: 2, Draws: 9, ErrEst: 0.75,
			Last: geo.Point{X: 6.5, Y: -1.25, T: 6}, HasLast: true,
			Entries: []buffer.EntryState{
				{Index: 0, P: geo.Point{X: 0, Y: 0, T: 0}, Value: 0, HeapPos: -1},
				{Index: 3, P: geo.Point{X: 3.25, Y: 1, T: 3}, Value: 1.5, HeapPos: 0},
				{Index: 5, P: geo.Point{X: 5, Y: -0.5, T: 5}, Value: math.Copysign(0, -1), HeapPos: 1},
			},
		},
		Repair: &traj.RepairState{
			Cfg:       traj.RepairConfig{Window: 4, MaxSpeed: 12.5, DupRadius: 0.5, AverageDups: true},
			Seq:       11,
			MaxRelSeq: 10,
			Pending: []traj.PendingFixState{
				{P: geo.Point{X: 9, Y: 9.5, T: 9}, Seq: 9},
				{P: geo.Point{X: 10, Y: 10.5, T: 10}, Seq: 10},
			},
			HasHeld:   true,
			HeldFirst: geo.Point{X: 8, Y: 8.5, T: 8},
			HeldSumX:  16.25,
			HeldSumY:  17,
			HeldN:     2,
			HasLast:   true,
			Last:      geo.Point{X: 7, Y: 7.5, T: 7},
			Report:    traj.RepairReport{Pushed: 11, Emitted: 6, NonFinite: 1, Reordered: 2, Duplicates: 1},
		},
	}
}

// TestStateCodecGoldenBytes pins the streamer-state, repair-state and v2
// spill-envelope encodings, and checks each golden blob decodes back to
// the record it was made from.
func TestStateCodecGoldenBytes(t *testing.T) {
	rec := goldenRecord()
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"streamer state", rec.State.AppendBinary(nil), goldenStreamerHex},
		{"repair state", rec.Repair.AppendBinary(nil), goldenRepairHex},
		{"spill envelope v2", encodeSession(rec), goldenEnvelopeHex},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s encoding changed:\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	env, err := hex.DecodeString(goldenEnvelopeHex)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeSession(env)
	if err != nil {
		t.Fatalf("golden envelope rejected: %v", err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("golden envelope decoded to\n%+v\nwant\n%+v", back, rec)
	}
	// DeepEqual treats -0 and +0 as equal; the codec must not.
	if v := back.State.Entries[2].Value; !math.Signbit(v) {
		t.Errorf("negative zero drop value decoded as %g", v)
	}
}

// maxFuzzDraws bounds the sampled decisions a fuzzed streamer state may
// claim before the target resumes it: ResumeStreamer replays the RNG one
// draw per recorded decision, so a random 64-bit count would spend the
// fuzz budget spinning rather than exploring.
const maxFuzzDraws = 1 << 16

// FuzzStateEnvelopes drives every state envelope kind through one
// target. The fuzz bytes go straight to the streamer-state and
// repair-state decoders (no CRC stands in the way), then to
// ResumeStreamer (and through it buffer.Restore) and ResumeRepairer; and
// they go, framed by the magic and resealed with a valid CRC, to the
// spill envelope decoder. Nothing may panic, and whatever is accepted
// must re-encode to the very bytes it came from.
func FuzzStateEnvelopes(f *testing.F) {
	opts := core.Options{Measure: errm.SED, Variant: core.Online, K: 3, J: 2}
	policy, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8, rand.New(rand.NewSource(7)))
	if err != nil {
		f.Fatal(err)
	}
	rec := goldenRecord()
	f.Add(rec.State.AppendBinary(nil))
	f.Add(rec.Repair.AppendBinary(nil))
	env := encodeSession(rec)
	f.Add(env[len(spillMagic) : len(env)-4])
	// Live states: a sampling streamer with skips and a repairer holding
	// a reordering window.
	str, err := core.NewStreamer(policy, 6, opts, true, rand.New(rand.NewSource(3)))
	if err != nil {
		f.Fatal(err)
	}
	rp := traj.NewRepairer(traj.RepairConfig{Window: 5, MaxSpeed: 50, AverageDups: true})
	for _, p := range gen.New(gen.Geolife(), 5).Dataset(1, 60)[0] {
		str.Push(p)
		rp.Push(geo.Pt(p.X, p.Y, p.T-float64(int(p.T)%3)))
	}
	f.Add(str.ExportState().AppendBinary(nil))
	f.Add(rp.ExportState().AppendBinary(nil))
	live := encodeSession(&sessionRecord{ID: "0123abcd", Key: "rlts-skip/sed",
		State: str.ExportState(), Repair: rp.ExportState()})
	f.Add(live[len(spillMagic) : len(live)-4])

	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := core.DecodeStreamerState(data); err == nil {
			if !bytes.Equal(st.AppendBinary(nil), data) {
				t.Fatal("accepted streamer state re-encodes differently")
			}
			if !st.Sample || st.Draws <= maxFuzzDraws {
				r := rand.New(rand.NewSource(1))
				if s, err := core.ResumeStreamer(policy, opts, st, r); err == nil &&
					!bytes.Equal(s.ExportState().AppendBinary(nil), data) {
					t.Fatal("resumed streamer exports a different state")
				}
			}
		}
		if rs, err := traj.DecodeRepairState(data); err == nil {
			if !bytes.Equal(rs.AppendBinary(nil), data) {
				t.Fatal("accepted repair state re-encodes differently")
			}
			if r, err := traj.ResumeRepairer(rs); err == nil &&
				!bytes.Equal(r.ExportState().AppendBinary(nil), data) {
				t.Fatal("resumed repairer exports a different state")
			}
		}
		sealed := append([]byte(spillMagic), data...)
		sealed = wire.AppendU32(sealed, crc32.ChecksumIEEE(sealed))
		rec, err := decodeSession(sealed)
		if err != nil {
			return
		}
		if rec.State == nil || !validSpillID(rec.ID) || rec.Key == "" {
			t.Fatalf("decoder accepted a half-restored record: %+v", rec)
		}
		again := encodeSession(rec)
		if rec.Repair != nil || bytes.Equal(data[:4], wire.AppendU32(nil, spillVersion)) {
			if !bytes.Equal(again, sealed) {
				t.Fatal("accepted spill envelope re-encodes differently")
			}
			return
		}
		// A version-1 envelope re-encodes as the current version; the
		// record it carries must survive that upgrade unchanged.
		back, err := decodeSession(again)
		if err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("upgraded v1 envelope does not round-trip: %v", err)
		}
	})
}
