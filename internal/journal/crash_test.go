package journal_test

import (
	"fmt"
	"slices"
	"testing"

	"snet/internal/faultfs"
	"snet/internal/journal"
	"snet/internal/record"
)

// scriptOp is one step of the crash-enumeration workload: an AppendBatch
// of group records, or (group == 0) an Ack of the listed ids.
type scriptOp struct {
	group int
	ack   []uint64
}

// crashScript interleaves groups of 1–16 records with acks. Ids are
// assigned from 1 in accept order: the groups take 1–3, 4, 5–20, 21–25,
// 26–27 and 28–39. It ends on a group, the write the byte-level tear
// enumeration targets.
var crashScript = []scriptOp{
	{group: 3},
	{group: 1},
	{ack: []uint64{2}},
	{group: 16},
	{ack: []uint64{1, 5, 6, 7}},
	{group: 5},
	{group: 2},
	{ack: []uint64{3, 20, 21}},
	{group: 12},
}

// scriptRec builds the record journaled under delivery id: every fourth
// one carries a label no earlier record used, so the codec session defines
// labels inline in the middle of the segment.
func scriptRec(id uint64) *record.Record {
	r := record.New().SetField("payload", fmt.Sprintf("v%d", id)).SetTag("seq", int(id))
	if id%4 == 0 {
		r.SetTag(fmt.Sprintf("extra%d", id), int(id)*3)
	}
	return r
}

// runOps drives ops against j, numbering records from next, and returns
// the next unused number.
func runOps(t *testing.T, j *journal.Journal, ops []scriptOp, next uint64) uint64 {
	t.Helper()
	for _, op := range ops {
		if op.group == 0 {
			if err := j.Ack(op.ack); err != nil {
				t.Fatalf("Ack %v: %v", op.ack, err)
			}
			continue
		}
		rs := make([]*record.Record, op.group)
		ids := make([]uint64, op.group)
		for i := range rs {
			rs[i] = scriptRec(next + uint64(i))
		}
		if err := j.AppendBatch("", rs, ids); err != nil {
			t.Fatalf("AppendBatch of %d: %v", op.group, err)
		}
		for i, id := range ids {
			if id != next+uint64(i) {
				t.Fatalf("record %d got id %d, want %d", i, id, next+uint64(i))
			}
		}
		next += uint64(op.group)
	}
	return next
}

// checkRecovered opens fs afresh and requires exactly want, in order, each
// record equal to what was journaled under its id, with torn frames
// counted.
func checkRecovered(t *testing.T, fs journal.FS, want []uint64, torn int) {
	t.Helper()
	j, err := journal.Open(journal.Config{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	var got []uint64
	for _, e := range j.Recovered() {
		got = append(got, e.ID)
		if !e.Rec.Equal(scriptRec(e.ID)) {
			t.Errorf("id %d recovered as %s, want %s", e.ID, e.Rec, scriptRec(e.ID))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recovered ids %v, want %v", got, want)
	}
	if s := j.Stats(); s.Torn != torn {
		t.Fatalf("Torn = %d, want %d", s.Torn, torn)
	}
}

// cleanRun runs the whole script on a fault-free FS and returns the
// segment's frames.
func cleanRun(t *testing.T) []frame {
	t.Helper()
	fs := newMemFS()
	j, err := journal.Open(journal.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, j, crashScript, 1)
	j.Close()
	names, _ := fs.List()
	if len(names) != 1 {
		t.Fatalf("clean run left segments %v, want one", names)
	}
	data, _ := fs.ReadFile(names[0])
	return parseFrames(t, data)
}

// TestCrashPointsRecoverDurablePrefix tears the segment at every frame
// boundary and at every byte of the final group write. Whatever survives,
// a fresh Open must recover exactly the accepted records whose frame lies
// wholly before the cut and whose ack does not, each once and in order.
func TestCrashPointsRecoverDurablePrefix(t *testing.T) {
	frames := cleanRun(t)
	last := crashScript[len(crashScript)-1].group
	finalStart := frames[len(frames)-last-1].end
	total := frames[len(frames)-1].end
	boundary := map[int]bool{0: true}
	for _, f := range frames {
		boundary[f.end] = true
	}
	var cuts []int
	for c := range boundary {
		if c < finalStart {
			cuts = append(cuts, c)
		}
	}
	for c := finalStart; c <= total; c++ {
		cuts = append(cuts, c)
	}
	slices.Sort(cuts)
	for _, cut := range cuts {
		inner := newMemFS()
		ffs := faultfs.New(inner)
		j, err := journal.Open(journal.Config{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		ffs.CutAfter(cut)
		runOps(t, j, crashScript, 1)
		// No Close: the process crashed with the cut tail in flight.
		var durable []frame
		for _, f := range frames {
			if f.end <= cut {
				durable = append(durable, f)
			}
		}
		torn := 0
		if !boundary[cut] {
			torn = 1
		}
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			checkRecovered(t, inner, unacked(durable), torn)
		})
	}
}

// TestShortGroupWriteReseals short-writes the 16-record group by every
// byte count. AppendBatch must fail with every id zero and reseal the
// segment; the group's complete leading frames still replay (a duplicate
// at worst), and every later group survives replay.
func TestShortGroupWriteReseals(t *testing.T) {
	const target = 3 // the 16-record group
	frames := cleanRun(t)
	// The group's frames follow those of the ops before it.
	before := 0
	for _, op := range crashScript[:target] {
		if op.group > 0 {
			before += op.group
		} else {
			before++
		}
	}
	n := crashScript[target].group
	start := frames[before-1].end
	length := frames[before+n-1].end - start
	for keep := 0; keep <= length; keep++ {
		t.Run(fmt.Sprintf("keep%d", keep), func(t *testing.T) {
			inner := newMemFS()
			ffs := faultfs.New(inner)
			j, err := journal.Open(journal.Config{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			next := runOps(t, j, crashScript[:target], 1)
			segs := j.Stats().Segments
			ffs.FailWrite(1, keep)
			rs := make([]*record.Record, n)
			ids := make([]uint64, n)
			for i := range rs {
				rs[i] = scriptRec(next + uint64(i))
				ids[i] = 99 // must be cleared
			}
			if err := j.AppendBatch("", rs, ids); err == nil {
				t.Fatal("short-written group reported success")
			}
			for i, id := range ids {
				if id != 0 {
					t.Fatalf("failed group left ids[%d] = %d", i, id)
				}
			}
			if got := j.Stats().Segments; got != segs+1 {
				t.Fatalf("segments %d after the failed write, want %d (resealed)", got, segs+1)
			}
			runOps(t, j, crashScript[target+1:], next+uint64(n))
			j.Close()
			// Replay sees the group's frames that landed whole, then the
			// resealed segment with everything after it.
			var durable []frame
			torn := 1 // unless the short write ends on a frame boundary
			if keep == 0 {
				torn = 0
			}
			for i, f := range frames {
				if f.end == start+keep {
					torn = 0
				}
				if i < before || i >= before+n || f.end <= start+keep {
					durable = append(durable, f)
				}
			}
			checkRecovered(t, inner, unacked(durable), torn)
		})
	}
}
