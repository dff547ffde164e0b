package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"snet/internal/clock"
	"snet/internal/journal"
	"snet/internal/leakcheck"
	"snet/internal/record"
	"snet/internal/rtype"
)

// failNBox returns a box {x} -> {x} that fails its first n executions per
// record value and then passes the record through incremented.
func failNBox(name string, n int) *Entity {
	var mu sync.Mutex
	attempts := map[int]int{}
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	return NewBox(name, sig, func(c *BoxCall) error {
		x := c.Field("x").(int)
		mu.Lock()
		attempts[x]++
		cur := attempts[x]
		mu.Unlock()
		if cur <= n {
			return fmt.Errorf("induced failure %d for x=%d", cur, x)
		}
		c.Emit(record.New().SetField("x", x+1))
		return nil
	})
}

// driveRetries advances fc to each backoff timer the runtime arms until
// stop closes, then delivers the waits it passed, in order.
func driveRetries(fc *clock.Fake, stop <-chan struct{}) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	go func() {
		var delays []time.Duration
		for {
			select {
			case <-stop:
				out <- delays
				return
			default:
			}
			if d, ok := fc.Next(); ok {
				delays = append(delays, d)
				fc.Advance(d)
			} else {
				runtime.Gosched()
			}
		}
	}()
	return out
}

func TestPoisonRecordDeadLetters(t *testing.T) {
	defer leakcheck.Check(t)
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	poison := NewBox("poison", sig, func(c *BoxCall) error {
		return errors.New("always fails")
	})
	net := NewNetwork(poison, Options{BoxRetry: BoxRetry{Attempts: 3}})
	inst := net.Start()
	in := record.Build().F("x", 7).F("evidence", "intact").Rec()
	inst.Send(in)
	if err := inst.Close(); err == nil {
		t.Fatal("expected a reported error")
	}
	letters, dropped := inst.DeadLetters()
	if dropped != 0 || len(letters) != 1 {
		t.Fatalf("dead letters = %d (dropped %d), want 1", len(letters), dropped)
	}
	dl := letters[0]
	if dl.Entity != "poison" || dl.Attempts != 3 {
		t.Errorf("dead letter = %+v, want entity poison, 3 attempts", dl)
	}
	if dl.Record != in {
		t.Errorf("dead letter holds %p, want the exact input record %p", dl.Record, in)
	}
	if v, _ := dl.Record.Field("evidence"); v != "intact" {
		t.Errorf("dead-letter record mutated: %s", dl.Record)
	}
	if dl.Err == nil || !strings.Contains(dl.Err.Error(), "always fails") {
		t.Errorf("dead letter err = %v", dl.Err)
	}
	if err := inst.Err(); !strings.Contains(err.Error(), "dead-lettered after 3 attempts") {
		t.Errorf("instance error = %v", err)
	}
}

func TestRetryEventuallySucceeds(t *testing.T) {
	defer leakcheck.Check(t)
	fc := clock.NewFake(time.Unix(1000, 0))
	net := NewNetwork(failNBox("flaky", 2), Options{
		BoxRetry: BoxRetry{
			Attempts:   5,
			Backoff:    10 * time.Millisecond,
			MaxBackoff: 15 * time.Millisecond,
		},
		Clock: fc.Clock(),
	})
	stop := make(chan struct{})
	waits := driveRetries(fc, stop)
	outs, err := net.Run(record.New().SetField("x", 1))
	close(stop)
	delays := <-waits
	if err != nil {
		t.Fatalf("network error: %v", err)
	}
	if len(outs) != 1 || xVal(t, outs[0]) != 2 {
		t.Fatalf("outs = %v", outs)
	}
	// Two failures: waits of base then min(2*base, max).
	want := []time.Duration{10 * time.Millisecond, 15 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Errorf("backoff delays = %v, want %v", delays, want)
	}
}

func TestRetryDiscardsPartialEmissions(t *testing.T) {
	defer leakcheck.Check(t)
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	leaky := NewBox("leaky", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("x", 99))
		return errors.New("fails after emitting")
	})
	net := NewNetwork(leaky, Options{BoxRetry: BoxRetry{Attempts: 2}})
	outs, err := net.Run(record.New().SetField("x", 1))
	if err == nil {
		t.Fatal("expected error")
	}
	if len(outs) != 0 {
		t.Fatalf("partial emissions escaped a retried failure: %v", outs)
	}
}

func TestLegacyFailureLetsEmissionsFlow(t *testing.T) {
	defer leakcheck.Check(t)
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	leaky := NewBox("leaky", sig, func(c *BoxCall) error {
		c.Emit(record.New().SetField("x", 99))
		return errors.New("late failure")
	})
	net := NewNetwork(leaky, Options{}) // Attempts 0: historical behaviour
	inst := net.Start()
	inst.Send(record.New().SetField("x", 1))
	var outs []*record.Record
	go func() {
		inst.closeOnce.Do(func() { close(inst.in) })
	}()
	for r := range inst.Out {
		outs = append(outs, r)
	}
	if err := inst.Close(); err == nil || !strings.Contains(err.Error(), "late failure") {
		t.Fatalf("err = %v", err)
	}
	if len(outs) != 1 || xVal(t, outs[0]) != 99 {
		t.Fatalf("outs = %v, want the partial emission", outs)
	}
	if letters, _ := inst.DeadLetters(); len(letters) != 0 {
		t.Fatalf("legacy mode produced dead letters: %v", letters)
	}
}

func TestPanicRetriesAndDeadLetters(t *testing.T) {
	defer leakcheck.Check(t)
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	bomb := NewBox("bomb", sig, func(c *BoxCall) error {
		panic("kaboom")
	})
	net := NewNetwork(bomb, Options{BoxRetry: BoxRetry{Attempts: 2}})
	inst := net.Start()
	inst.Send(record.New().SetField("x", 1))
	inst.Close()
	letters, _ := inst.DeadLetters()
	if len(letters) != 1 || letters[0].Attempts != 2 {
		t.Fatalf("dead letters = %v", letters)
	}
	if !strings.Contains(letters[0].Err.Error(), "box panicked: kaboom") {
		t.Errorf("dead letter err = %v", letters[0].Err)
	}
	rep := inst.Errs()
	if len(rep.Retained) != 1 || rep.Retained[0].Category != ErrCatPanic {
		t.Fatalf("Errs = %+v, want one ErrCatPanic", rep)
	}
}

func TestErrsStructuredAndDropCounts(t *testing.T) {
	defer leakcheck.Check(t)
	box := incBox("typed", 1)
	inst := NewNetwork(box, Options{}).Start()
	n := maxRetainedErrors + 6
	for i := 0; i < n; i++ {
		inst.Send(record.New().SetField("wrong", i))
	}
	inst.Close()
	rep := inst.Errs()
	if rep.Total != n {
		t.Fatalf("Total = %d, want %d", rep.Total, n)
	}
	if len(rep.Retained) != maxRetainedErrors {
		t.Fatalf("Retained = %d, want %d", len(rep.Retained), maxRetainedErrors)
	}
	re := rep.Retained[0]
	if re.Entity != "typed" || re.Category != ErrCatNoMatch || re.Shape == "" {
		t.Errorf("retained[0] = %+v", re)
	}
	if rep.Dropped[ErrCatNoMatch] != 6 {
		t.Errorf("Dropped = %v, want 6 no-match", rep.Dropped)
	}
	if rep.Stopped {
		t.Error("Stopped set on an orderly close")
	}
}

// TestDurabilityAcksOnCompletion drives records — including a fan-out and a
// sanctioned drop — through a durable instance and verifies the journal is
// empty afterwards: every delivery's derivation tree completed.
func TestDurabilityAcksOnCompletion(t *testing.T) {
	defer leakcheck.Check(t)
	dir := t.TempDir()
	// fan: {x} -> {a=x}, {b=x} — one input record, two outputs.
	fan := NewFilter("", FilterRule{
		Pattern: rtype.NewPattern(rtype.NewVariant(rtype.F("x"))),
		Outputs: []FilterOutput{
			{RenameFields: []Rename{{From: "x", To: "a"}}},
			{RenameFields: []Rename{{From: "x", To: "b"}}},
		},
	})
	net := NewNetwork(fan, Options{Durability: &Durability{Dir: dir}})
	inst := net.Start()
	for i := 0; i < 8; i++ {
		inst.Send(record.New().SetField("x", i))
	}
	inst.Send(record.New().SetTag("unmatched", 1)) // sanctioned no-match drop
	outs := 0
	go func() { inst.closeOnce.Do(func() { close(inst.in) }) }()
	for range inst.Out {
		outs++
	}
	inst.Close()
	if outs != 16 {
		t.Fatalf("got %d outputs, want 16", outs)
	}
	j, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j.Close()
	if rec := j.Recovered(); len(rec) != 0 {
		t.Fatalf("journal still holds %d unacked deliveries after full completion", len(rec))
	}
}

// blockyNet builds intake -> mark -> hold with fusion off: mark signals every
// record it forwards (so the test knows the record was journaled upstream),
// hold parks records against gate/done. Both boxes re-emit their input, so a
// stopped instance leaves every in-flight delivery unacknowledged.
func blockyNet(arrivals chan<- struct{}, gate, done <-chan struct{}) *Entity {
	sig := MustSig([]rtype.Label{rtype.F("x")}, []rtype.Label{rtype.F("x")})
	mark := NewBox("mark", sig, func(c *BoxCall) error {
		arrivals <- struct{}{}
		c.Emit(c.In)
		return nil
	})
	hold := NewBox("hold", sig, func(c *BoxCall) error {
		select {
		case <-gate:
		case <-done:
		}
		c.Emit(c.In)
		return nil
	})
	return Serial(mark, hold)
}

func TestDurabilityReplayAfterStop(t *testing.T) {
	defer leakcheck.Check(t)
	dir := t.TempDir()
	opts := Options{
		Durability: &Durability{Dir: dir, Fsync: journal.FsyncAlways},
		Optimize:   OptimizeOff, // keep mark and hold pipelined, not fused
	}

	arrivals := make(chan struct{}, 8)
	gate := make(chan struct{}) // never closed: the first life blocks in hold
	// hold unparks via a proxy channel the test closes alongside Stop (the
	// instance's own Done channel does not exist until after Start).
	proxy := make(chan struct{})
	inst := NewNetwork(blockyNet(arrivals, gate, proxy), opts).Start()
	for i := 0; i < 3; i++ {
		if !inst.Send(record.New().SetField("x", i)) {
			t.Fatal("send refused")
		}
	}
	for i := 0; i < 3; i++ {
		<-arrivals // mark forwarded record i: the journal holds it
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(proxy) // unpark hold so Stop's unwind completes
	}()
	inst.Stop()

	// Second life: same directory, open gate, fresh instance.
	open := make(chan struct{})
	close(open)
	inst2 := NewNetwork(blockyNet(arrivals, open, nil), opts).Start()
	n, err := inst2.Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 3 {
		t.Fatalf("recovered %d deliveries, want 3", n)
	}
	for i := 0; i < 3; i++ {
		<-arrivals
	}
	var got []int
	go func() { inst2.closeOnce.Do(func() { close(inst2.in) }) }()
	for r := range inst2.Out {
		got = append(got, xVal(t, r))
	}
	if err := inst2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	sort.Ints(got)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("replayed outputs = %v, want [0 1 2]", got)
	}

	// Third life: everything was acknowledged, nothing left to replay.
	inst3 := NewNetwork(blockyNet(arrivals, open, nil), opts).Start()
	if n, err := inst3.Recover(dir); err != nil || n != 0 {
		t.Fatalf("third life recovered %d, %v; want 0, nil", n, err)
	}
	inst3.Close()
}

func TestDurabilityOutputEquivalence(t *testing.T) {
	defer leakcheck.Check(t)
	run := func(opts Options) []int {
		outs, err := NewNetwork(incBox("inc", 1), opts).Run(
			record.New().SetField("x", 10),
			record.New().SetField("x", 20),
			record.New().SetField("x", 30))
		if err != nil {
			t.Fatalf("network error: %v", err)
		}
		var xs []int
		for _, r := range outs {
			xs = append(xs, xVal(t, r))
		}
		sort.Ints(xs)
		return xs
	}
	plain := run(Options{})
	durable := run(Options{Durability: &Durability{Dir: t.TempDir()}})
	if len(plain) != len(durable) {
		t.Fatalf("plain %v vs durable %v", plain, durable)
	}
	for i := range plain {
		if plain[i] != durable[i] {
			t.Fatalf("plain %v vs durable %v", plain, durable)
		}
	}
}

func TestRecoverValidation(t *testing.T) {
	defer leakcheck.Check(t)
	inst := NewNetwork(incBox("inc", 1), Options{}).Start()
	if _, err := inst.Recover(t.TempDir()); err == nil {
		t.Error("Recover without a journal succeeded")
	}
	inst.Close()

	dir := t.TempDir()
	inst2 := NewNetwork(incBox("inc", 1), Options{Durability: &Durability{Dir: dir}}).Start()
	if _, err := inst2.Recover("/somewhere/else"); err == nil {
		t.Error("Recover with mismatched dir succeeded")
	}
	if _, err := inst2.Recover(dir); err != nil {
		t.Errorf("Recover: %v", err)
	}
	if _, err := inst2.Recover(dir); err == nil {
		t.Error("second Recover succeeded")
	}
	inst2.Close()
}

func TestBackoff(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		base, max time.Duration
		n         int
		want      time.Duration
	}{
		{0, 0, 1, 0},
		{10 * ms, 0, 1, 10 * ms},
		{10 * ms, 0, 3, 40 * ms},
		{10 * ms, 25 * ms, 3, 25 * ms},
		{10 * ms, 0, 0, 0},
	}
	for _, c := range cases {
		if got := backoff(c.base, c.max, c.n); got != c.want {
			t.Errorf("backoff(%v,%v,%d) = %v, want %v", c.base, c.max, c.n, got, c.want)
		}
	}
}

// gatedFS counts the journal's accept writes (a write whose first frame
// is an 'A') and holds the first one until release closes, so a test can
// queue records behind the intake while it is inside the journal.
type gatedFS struct {
	journal.FS
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	accepts int
}

func (g *gatedFS) OpenAppend(name string) (journal.File, error) {
	f, err := g.FS.OpenAppend(name)
	return gatedFile{File: f, fs: g}, err
}

type gatedFile struct {
	journal.File
	fs *gatedFS
}

func (f gatedFile) Write(p []byte) (int, error) {
	if len(p) > 8 && p[8] == 'A' {
		f.fs.mu.Lock()
		f.fs.accepts++
		first := f.fs.accepts == 1
		f.fs.mu.Unlock()
		if first {
			close(f.fs.entered)
			<-f.fs.release
		}
	}
	return f.File.Write(p)
}

func TestDurabilityGroupCommit(t *testing.T) {
	defer leakcheck.Check(t)
	dir := t.TempDir()
	fs := &gatedFS{FS: journal.DirFS(dir), entered: make(chan struct{}), release: make(chan struct{})}
	inst := NewNetwork(incBox("inc", 1), Options{
		BufferSize: 64, BatchSize: 16,
		Durability: &Durability{Dir: dir, FS: fs},
	}).Start()
	inst.Send(record.New().SetField("x", 0))
	<-fs.entered
	// 32 records queue on In while the intake is inside the first write;
	// one of them has no wire form and must flow through untracked.
	for i := 1; i <= 32; i++ {
		r := record.New().SetField("x", i)
		if i == 7 {
			r.SetField("opaque", struct{ y int }{i})
		}
		inst.Send(r)
	}
	close(fs.release)
	go func() { inst.closeOnce.Do(func() { close(inst.in) }) }()
	var got []int
	for r := range inst.Out {
		got = append(got, xVal(t, r))
	}
	if err := inst.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	sort.Ints(got)
	if len(got) != 33 || got[0] != 1 || got[32] != 33 {
		t.Fatalf("outputs = %v, want 1..33", got)
	}
	// The queued 32 drain as two groups of 16: three accept writes.
	fs.mu.Lock()
	if fs.accepts != 3 {
		t.Errorf("33 records took %d accept writes, want 3", fs.accepts)
	}
	fs.mu.Unlock()
	j, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j.Close()
	if rec := j.Recovered(); len(rec) != 0 {
		t.Fatalf("journal still holds %d unacked deliveries after full completion", len(rec))
	}
}
