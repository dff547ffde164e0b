package journal_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snet/internal/clock"
	"snet/internal/faultfs"
	"snet/internal/journal"
	"snet/internal/record"
)

func rec(i int) *record.Record {
	return record.New().SetField("payload", "value").SetTag("seq", i)
}

func openDir(t *testing.T, dir string, mut func(*journal.Config)) *journal.Journal {
	t.Helper()
	cfg := journal.Config{Dir: dir}
	if mut != nil {
		mut(&cfg)
	}
	j, err := journal.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

func TestAppendRecoverAck(t *testing.T) {
	dir := t.TempDir()
	j := openDir(t, dir, nil)
	var ids []uint64
	for i := 0; i < 5; i++ {
		id, err := j.Append("box", rec(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if err := j.Ack([]uint64{ids[0], ids[2]}); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := openDir(t, dir, nil)
	defer j2.Close()
	got := j2.Recovered()
	if len(got) != 3 {
		t.Fatalf("recovered %d entries, want 3", len(got))
	}
	wantIDs := []uint64{ids[1], ids[3], ids[4]}
	for i, e := range got {
		if e.ID != wantIDs[i] {
			t.Errorf("recovered[%d].ID = %d, want %d", i, e.ID, wantIDs[i])
		}
		if e.Meta != "box" {
			t.Errorf("recovered[%d].Meta = %q, want box", i, e.Meta)
		}
		if v, _ := e.Rec.Field("payload"); v != "value" {
			t.Errorf("recovered[%d] payload = %v", i, v)
		}
		if seq, _ := e.Rec.Tag("seq"); seq != int(wantIDs[i]-1) {
			t.Errorf("recovered[%d] seq = %d, want %d", i, seq, wantIDs[i]-1)
		}
	}
	if next := j2.NextID(); next != ids[4]+1 {
		t.Errorf("NextID = %d, want %d", next, ids[4]+1)
	}
}

func TestRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	fs := journal.DirFS(dir)
	j := openDir(t, dir, func(c *journal.Config) { c.SegmentBytes = 256 })
	var ids []uint64
	for i := 0; i < 50; i++ {
		id, err := j.Append("", rec(i))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		ids = append(ids, id)
	}
	if s := j.Stats(); s.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", s.Segments)
	}
	// Acking everything lets every sealed segment truncate.
	if err := j.Ack(ids); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if s := j.Stats(); s.Segments != 1 || s.Unacked != 0 {
		t.Fatalf("after full ack: %+v, want 1 segment, 0 unacked", s)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 1 {
		t.Fatalf("disk has %d segments after truncation: %v", len(names), names)
	}

	j2 := openDir(t, dir, nil)
	defer j2.Close()
	if got := j2.Recovered(); len(got) != 0 {
		t.Fatalf("recovered %d entries after full ack, want 0", len(got))
	}
	if next := j2.NextID(); next != ids[49]+1 {
		t.Errorf("NextID = %d, want %d (ids survive truncation)", next, ids[49]+1)
	}
}

func TestTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(journal.DirFS(dir))
	j := openDir(t, dir, func(c *journal.Config) { c.FS = ffs })
	for i := 0; i < 3; i++ {
		if _, err := j.Append("", rec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Cut the disk mid-frame: the 4th append "succeeds" (the crashed
	// kernel lied) but only half its frame reaches the platter.
	ffs.CutAfter(20)
	if _, err := j.Append("", rec(3)); err != nil {
		t.Fatalf("Append over cut: %v (the cut write must look successful)", err)
	}
	// No Close: this is a crash.

	j2 := openDir(t, dir, func(c *journal.Config) { c.FS = faultfs.New(journal.DirFS(dir)) })
	defer j2.Close()
	got := j2.Recovered()
	if len(got) != 3 {
		t.Fatalf("recovered %d entries past torn tail, want 3", len(got))
	}
	if s := j2.Stats(); s.Torn != 1 {
		t.Errorf("Torn = %d, want 1", s.Torn)
	}
	if next := j2.NextID(); next != 4 {
		t.Errorf("NextID = %d, want 4", next)
	}
}

func TestShortWriteSurfacesAndReseals(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(journal.DirFS(dir))
	j := openDir(t, dir, func(c *journal.Config) { c.FS = ffs })
	if _, err := j.Append("", rec(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ffs.FailWrite(1, 7) // next frame: 7 bytes land, then the error
	if _, err := j.Append("", rec(1)); err == nil {
		t.Fatal("Append over short write succeeded, want error")
	}
	// The journal resealed onto a fresh segment; later appends must both
	// succeed and survive replay (the torn frame stays quarantined in the
	// sealed segment).
	id3, err := j.Append("", rec(2))
	if err != nil {
		t.Fatalf("Append after reseal: %v", err)
	}
	j.Close()

	j2 := openDir(t, dir, nil)
	defer j2.Close()
	got := j2.Recovered()
	if len(got) != 2 {
		t.Fatalf("recovered %d entries, want 2 (short-written frame dropped)", len(got))
	}
	if got[1].ID != id3 {
		t.Errorf("recovered[1].ID = %d, want %d", got[1].ID, id3)
	}
}

func TestFsyncAlwaysSurfacesSyncError(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(journal.DirFS(dir))
	j := openDir(t, dir, func(c *journal.Config) {
		c.FS = ffs
		c.Fsync = journal.FsyncAlways
	})
	if _, err := j.Append("", rec(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ffs.FailSync(1)
	if _, err := j.Append("", rec(1)); err == nil {
		t.Fatal("Append with failing fsync succeeded, want error")
	}
}

func TestFsyncBatchUsesInjectedClock(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(journal.DirFS(dir))
	fc := clock.NewFake(time.Unix(1000, 0))
	j := openDir(t, dir, func(c *journal.Config) {
		c.FS = ffs
		c.Fsync = journal.FsyncBatch
		c.FsyncInterval = 100 * time.Millisecond
		c.Clock = fc.Clock()
	})
	base := ffs.Syncs()
	for i := 0; i < 10; i++ {
		if _, err := j.Append("", rec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := ffs.Syncs(); got != base {
		t.Fatalf("appends within the interval synced %d times, want 0", got-base)
	}
	fc.Advance(150 * time.Millisecond)
	if _, err := j.Append("", rec(10)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := ffs.Syncs(); got != base+1 {
		t.Fatalf("append past the interval synced %d times, want 1", got-base)
	}
	j.Close()
}

func TestDuplicateIDDedupedOnReplay(t *testing.T) {
	// Two sessions can journal the same id only through fault windows;
	// replay must keep the first occurrence.
	dir := t.TempDir()
	j := openDir(t, dir, nil)
	id, err := j.Append("first", rec(0))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	j.Close()
	j2 := openDir(t, dir, nil)
	if n := len(j2.Recovered()); n != 1 {
		t.Fatalf("recovered %d, want 1", n)
	}
	j2.Close()
	_ = id
}

func TestMetaTooLong(t *testing.T) {
	j := openDir(t, t.TempDir(), nil)
	defer j.Close()
	if _, err := j.Append(strings.Repeat("x", 70000), rec(0)); err == nil {
		t.Fatal("oversized meta accepted")
	}
}

func TestAppendBatchIsOneWriteAndOneSync(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(journal.DirFS(dir))
	j := openDir(t, dir, func(c *journal.Config) {
		c.FS = ffs
		c.Fsync = journal.FsyncAlways
	})
	rs := make([]*record.Record, 16)
	for i := range rs {
		rs[i] = rec(i)
	}
	// An opaque field value has no wire form: that record alone is left
	// out of the group.
	rs[5] = record.New().SetField("payload", struct{ x int }{1})
	ids := make([]uint64, len(rs))
	writes, syncs := ffs.Writes(), ffs.Syncs()
	if err := j.AppendBatch("grp", rs, ids); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if got := ffs.Writes() - writes; got != 1 {
		t.Errorf("group of 16 took %d writes, want 1", got)
	}
	if got := ffs.Syncs() - syncs; got != 1 {
		t.Errorf("group under FsyncAlways took %d syncs, want 1", got)
	}
	if ids[5] != 0 {
		t.Errorf("unencodable record got id %d, want 0", ids[5])
	}
	if s := j.Stats(); s.Appends != 15 || s.Unacked != 15 {
		t.Errorf("stats %+v, want 15 appends and 15 unacked", s)
	}
	if _, err := j.Append("", rs[5]); err == nil {
		t.Error("Append of an unencodable record succeeded")
	}
	j.Close()

	j2 := openDir(t, dir, nil)
	defer j2.Close()
	got := j2.Recovered()
	if len(got) != 15 {
		t.Fatalf("recovered %d entries, want 15", len(got))
	}
	for i, e := range got {
		want := ids[i]
		if i >= 5 {
			want = ids[i+1]
		}
		if e.ID != want || e.Meta != "grp" {
			t.Errorf("recovered[%d] = id %d meta %q, want id %d meta grp", i, e.ID, e.Meta, want)
		}
	}
}

func TestStraySegmentNamesIgnored(t *testing.T) {
	dir := t.TempDir()
	// A backup of a segment holding unacked records: were it parsed as a
	// segment, Open would replay it and truncation would delete it.
	src := t.TempDir()
	js := openDir(t, src, nil)
	for i := 0; i < 3; i++ {
		if _, err := js.Append("", rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	js.Close()
	seg, err := os.ReadFile(filepath.Join(src, "seg-000000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	strays := []string{"seg-000001.wal.bak", "seg-000007.wal~", "seg-12.wal"}
	for _, name := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	j := openDir(t, dir, func(c *journal.Config) { c.SegmentBytes = 256 })
	if n := len(j.Recovered()); n != 0 {
		t.Fatalf("recovered %d entries from stray files, want 0", n)
	}
	// Rotate through several segments and ack everything, so truncation
	// sweeps every sealed segment.
	var ids []uint64
	for i := 0; i < 30; i++ {
		id, err := j.Append("", rec(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := j.Ack(ids); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openDir(t, dir, nil)
	if n := len(j2.Recovered()); n != 0 {
		t.Fatalf("recovered %d entries on reopen, want 0", n)
	}
	j2.Close()
	for _, name := range strays {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, seg) {
			t.Errorf("stray %s was touched: err %v", name, err)
		}
	}
}

// flakyExt is an extension codec whose Encode fails for the value "bad"
// after Handles accepted it — a mid-record encode failure.
type flakyExt struct{}

type extVal string

func (flakyExt) Handles(v any) bool { _, ok := v.(extVal); return ok }

func (flakyExt) Encode(v any) (string, []byte, error) {
	if v.(extVal) == "bad" {
		return "", nil, errors.New("induced encode failure")
	}
	return "ext", []byte(v.(extVal)), nil
}

func (flakyExt) Decode(name string, data []byte) (any, error) { return extVal(data), nil }

func TestAppendBatchMidRecordEncodeFailureReseals(t *testing.T) {
	dir := t.TempDir()
	ext := func(c *journal.Config) { c.Ext = flakyExt{} }
	j := openDir(t, dir, ext)
	rs := []*record.Record{
		rec(0).SetField("v", extVal("ok0")),
		rec(1).SetField("v", extVal("bad")).SetTag("fresh", 1),
		rec(2).SetField("v", extVal("ok2")).SetTag("fresh", 2),
	}
	ids := make([]uint64, len(rs))
	if err := j.AppendBatch("", rs, ids); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if ids[0] == 0 || ids[1] != 0 || ids[2] == 0 {
		t.Fatalf("ids = %v, want the failed record alone at 0", ids)
	}
	// The failed encode defined the "fresh" label in the codec session
	// without any frame carrying it: the journal must have resealed, so
	// record 2 defines it again in a new segment.
	if s := j.Stats(); s.Segments != 2 {
		t.Fatalf("segments = %d, want 2 (resealed)", s.Segments)
	}
	j.Close()
	j2 := openDir(t, dir, ext)
	defer j2.Close()
	got := j2.Recovered()
	if len(got) != 2 || got[0].ID != ids[0] || got[1].ID != ids[2] {
		t.Fatalf("recovered %v, want ids %d and %d", got, ids[0], ids[2])
	}
	if !got[1].Rec.Equal(rs[2]) {
		t.Fatalf("recovered %s, want %s", got[1].Rec, rs[2])
	}
}
