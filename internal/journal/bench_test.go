package journal_test

import (
	"fmt"
	"math"
	"testing"

	"snet/internal/dist"
	"snet/internal/journal"
	"snet/internal/record"
)

// discardFS is a journal.FS whose files swallow every write, so the
// measurements below are the journal's own encode-and-frame cost.
type discardFS struct{}

func (discardFS) OpenAppend(string) (journal.File, error) { return discardFile{}, nil }
func (discardFS) ReadFile(string) ([]byte, error)         { return nil, nil }
func (discardFS) Remove(string) error                     { return nil }
func (discardFS) List() ([]string, error)                 { return nil, nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// scalarGroup is n records of wire-scalar fields and tags.
func scalarGroup(n int) []*record.Record {
	rs := make([]*record.Record, n)
	for i := range rs {
		rs[i] = rec(i).SetField("x", float64(i))
	}
	return rs
}

// steadyJournal opens a journal on discardFS that never rotates, and
// warms it (codec labels negotiated, scratch buffer grown) with one group.
func steadyJournal(tb testing.TB, rs []*record.Record, ids []uint64) *journal.Journal {
	tb.Helper()
	j, err := journal.Open(journal.Config{FS: discardFS{}, SegmentBytes: math.MaxInt})
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.AppendBatch("", rs, ids); err != nil {
		tb.Fatal(err)
	}
	if err := j.Ack(ids); err != nil {
		tb.Fatal(err)
	}
	return j
}

// TestAppendBatchAllocs pins the group-commit contract: once warm, a
// journal appends (and acks) a group of scalar records without
// allocating, and AppendMarshal into a buffer with spare capacity
// allocates nothing.
func TestAppendBatchAllocs(t *testing.T) {
	skipIfRace(t)
	rs := scalarGroup(16)
	ids := make([]uint64, len(rs))
	j := steadyJournal(t, rs, ids)
	defer j.Close()
	n := testing.AllocsPerRun(1000, func() {
		if err := j.AppendBatch("", rs, ids); err != nil {
			t.Fatal(err)
		}
		if err := j.Ack(ids); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("AppendBatch+Ack of 16 allocated %.1f objects per run, want 0", n)
	}

	c := dist.NewCodec()
	buf, err := c.AppendMarshal(nil, rs[0])
	if err != nil {
		t.Fatal(err)
	}
	n = testing.AllocsPerRun(1000, func() {
		if buf, err = c.AppendMarshal(buf[:0], rs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("AppendMarshal allocated %.1f objects per run, want 0", n)
	}
}

// BenchmarkAppendBatch measures the steady-state cost of journaling
// groups of 1 and 16 records (plus acking them, which keeps the unacked
// set bounded as a live instance's is) on a long-lived journal. One op is
// one record, so ns/op, B/op and allocs/op are per record.
func BenchmarkAppendBatch(b *testing.B) {
	for _, size := range []int{1, 16} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			rs := scalarGroup(size)
			ids := make([]uint64, size)
			j := steadyJournal(b, rs, ids)
			defer j.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += size {
				if err := j.AppendBatch("", rs, ids); err != nil {
					b.Fatal(err)
				}
				if err := j.Ack(ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
