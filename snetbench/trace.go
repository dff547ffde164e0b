package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"snet/internal/core"
	"snet/internal/dist"
	"snet/internal/journal"
	"snet/internal/record"
)

// tracer records spans around the benchmark's calls into each layer. It
// never reaches into the program: every span starts and ends in this
// package, at a public function, a box body the benchmark registered, or a
// seam the program exposes (Platform, journal.FS, net.Listener).
//
// Every span is counted and its duration summed per kind, lock-free. The
// spans themselves are kept in memory — all coarse spans (setup steps,
// phases, renders) and those of every sampleEvery-th record, up to
// spanLimit — and written out by write when the run ends.
type tracer struct {
	t0    time.Time
	kinds []string // span kinds; fixed before any span is recorded
	count []atomic.Int64
	total []atomic.Int64 // summed duration, ns

	mu      sync.Mutex
	spans   []span
	dropped int64
}

// span is one recorded interval. Key is the record's <seq> or the render
// index (-1 when the span belongs to neither); Parent is the ID of the
// enclosing coarse span, 0 at the top. IDs are 1-based positions in spans.
type span struct {
	Kind       int
	ID, Parent int64
	Key        int64
	Start, End int64 // ns since t0
	pending    bool
}

const (
	sampleEvery = 64
	spanLimit   = 400_000
)

func newTracer(kinds ...string) *tracer {
	return &tracer{t0: time.Now(), kinds: kinds,
		count: make([]atomic.Int64, len(kinds)), total: make([]atomic.Int64, len(kinds))}
}

// kind returns the index of a registered span kind.
func (t *tracer) kind(name string) int {
	i := slices.Index(t.kinds, name)
	if i < 0 {
		panic("snetbench: unregistered span kind " + name)
	}
	return i
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a coarse span and returns its ID for children to name as
// their parent; end closes it. Coarse spans are always kept.
func (t *tracer) begin(kind int, key, parent int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Kind: kind, ID: int64(len(t.spans) + 1),
		Parent: parent, Key: key, Start: t.now(), pending: true})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) time.Duration {
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.pending = end, false
	d := s.End - s.Start
	kind := s.Kind
	t.mu.Unlock()
	t.count[kind].Add(1)
	t.total[kind].Add(d)
	return time.Duration(d)
}

// record adds a finished fine-grained span. Spans keyed by record are kept
// for every sampleEvery-th key, so a kept record has all of its spans.
func (t *tracer) record(kind int, key, parent, start, end int64) {
	t.count[kind].Add(1)
	t.total[kind].Add(end - start)
	if key >= 0 && key%sampleEvery != 0 {
		return
	}
	t.mu.Lock()
	if len(t.spans) < spanLimit {
		t.spans = append(t.spans, span{Kind: kind, ID: int64(len(t.spans) + 1),
			Parent: parent, Key: key, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed runs one call into a layer, as a span of kind under parent, and
// returns its duration. A nil tracer just runs fn.
func (t *tracer) timed(kind string, parent int64, fn func()) time.Duration {
	if t == nil {
		fn()
		return 0
	}
	start := t.now()
	fn()
	end := t.now()
	t.record(t.kind(kind), -1, parent, start, end)
	return time.Duration(end - start)
}

// sum returns the count and total duration of one span kind.
func (t *tracer) sum(name string) (int64, time.Duration) {
	k := t.kind(name)
	return t.count[k].Load(), time.Duration(t.total[k].Load())
}

// selfTimes returns, per kind, the summed self time of the kept spans: each
// span's duration minus the union of its children's intervals within it.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.kinds))
	for _, s := range t.spans {
		if s.pending {
			continue
		}
		d := s.End - s.Start
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		covered, cursor := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, cursor), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.Kind] += time.Duration(d - covered)
	}
	return self
}

// write stores the kept spans and a per-kind summary as one JSON document:
// spans are [kind, id, parent, key, start_ns, end_ns] rows.
func (t *tracer) write(path string, meta map[string]any) error {
	self := t.selfTimes()
	summary := map[string]any{}
	for i, name := range t.kinds {
		summary[name] = map[string]any{
			"count":    t.count[i].Load(),
			"total_ms": ms(time.Duration(t.total[i].Load())),
			"self_ms":  ms(self[i]),
		}
	}
	t.mu.Lock()
	rows := make([][6]int64, 0, len(t.spans))
	for _, s := range t.spans {
		rows = append(rows, [6]int64{int64(s.Kind), s.ID, s.Parent, s.Key, s.Start, s.End})
	}
	dropped := t.dropped
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	doc := map[string]any{"meta": meta, "kinds": t.kinds, "summary": summary,
		"sample_every": sampleEvery, "dropped": dropped, "spans": rows}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFS observes the journal's disk seam: it times and counts every
// segment write, sync and read, and forwards each call unchanged. Several
// journal directories may share one fsStats.
type tracedFS struct {
	journal.FS
	tr                   *tracer
	parent               *atomic.Int64 // current phase span
	st                   *fsStats
	kWrite, kSync, kRead int
}

type fsStats struct {
	writes, syncs, written, read atomic.Int64
}

func newTracedFS(inner journal.FS, tr *tracer, parent *atomic.Int64, st *fsStats) *tracedFS {
	return &tracedFS{FS: inner, tr: tr, parent: parent, st: st,
		kWrite: tr.kind("fs.Write"), kSync: tr.kind("fs.Sync"), kRead: tr.kind("fs.ReadFile")}
}

func (f *tracedFS) OpenAppend(name string) (journal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	start := f.tr.now()
	b, err := f.FS.ReadFile(name)
	f.tr.record(f.kRead, -1, f.parent.Load(), start, f.tr.now())
	f.st.read.Add(int64(len(b)))
	return b, err
}

type tracedFile struct {
	journal.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.fs.tr.now()
	n, err := f.File.Write(p)
	f.fs.tr.record(f.fs.kWrite, -1, f.fs.parent.Load(), start, f.fs.tr.now())
	f.fs.st.writes.Add(1)
	f.fs.st.written.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.fs.tr.now()
	err := f.File.Sync()
	f.fs.tr.record(f.fs.kSync, -1, f.fs.parent.Load(), start, f.fs.tr.now())
	f.fs.st.syncs.Add(1)
	return err
}

// tracedListener observes the coordinator side of every worker connection
// handed to wire.Serve: it times and counts each Read and Write.
type tracedListener struct {
	net.Listener
	tr            *tracer
	parent        *atomic.Int64
	kRead, kWrite int
	writes        atomic.Int64
	writeNS       atomic.Int64
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, l: l}, nil
}

type tracedConn struct {
	net.Conn
	l *tracedListener
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.l.tr.now()
	n, err := c.Conn.Read(p)
	c.l.tr.record(c.l.kRead, -1, c.l.parent.Load(), start, c.l.tr.now())
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.l.tr.now()
	n, err := c.Conn.Write(p)
	end := c.l.tr.now()
	c.l.tr.record(c.l.kWrite, -1, c.l.parent.Load(), start, end)
	c.l.writes.Add(1)
	c.l.writeNS.Add(end - start)
	return n, err
}

// clusterPlatform is everything wire.Cluster offers the runtime. The traced
// platform implements all of it by forwarding, so wrapping a cluster hides
// none of its optional contracts — remote execution, cancellation, batch
// transfer, stealing, load reports and Stats — from the runtime or from
// snetray.
type clusterPlatform interface {
	core.Platform
	core.CancellablePlatform
	core.BatchPlatform
	core.StealPlatform
	core.LoadPlatform
	core.RemotePlatform
	Stats() dist.Stats
}

var _ clusterPlatform = (*tracedPlatform)(nil)

// tracedPlatform times each box execution the runtime hands the platform:
// the wait from the ExecBox call to the start of the body (local) or of the
// worker's box (remote, via started), and the execution itself. A runtime
// on a RemotePlatform sends every box execution through ExecBox; the other
// Exec forms are forwarded untimed.
type tracedPlatform struct {
	clusterPlatform
	tr     *tracer
	parent *atomic.Int64 // current render span
	key    *atomic.Int64 // current render index
	kExec  int

	// started reports when and for how long the worker-side box ran for
	// the input.
	started func(input *record.Record) (start, dur int64, ok bool)

	mu     sync.Mutex
	execs  int64
	waitNS int64
	execNS int64
	remote []time.Duration // remote call durations
	extra  []time.Duration // remote call minus worker body time
	solve  time.Duration   // local "solve" body time
}

func (p *tracedPlatform) ExecBox(node int, cancel <-chan struct{}, box string, input *record.Record,
	stealable bool, local func()) (outs []*record.Record, remote, ok bool, err error) {
	start := p.tr.now()
	var bodyStart, bodyEnd int64
	ranLocal := false
	outs, remote, ok, err = p.clusterPlatform.ExecBox(node, cancel, box, input, stealable, func() {
		ranLocal = true
		bodyStart = p.tr.now()
		local()
		bodyEnd = p.tr.now()
	})
	end := p.tr.now()
	p.tr.record(p.kExec, p.key.Load(), p.parent.Load(), start, end)
	if !ok {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.execs++
	switch {
	case ranLocal:
		p.waitNS += bodyStart - start
		p.execNS += bodyEnd - bodyStart
		if box == "solve" || box == "solver" {
			p.solve += time.Duration(bodyEnd - bodyStart)
		}
	case remote:
		p.remote = append(p.remote, time.Duration(end-start))
		if ws, wd, found := p.started(input); found {
			p.waitNS += ws - start
			p.execNS += wd
			p.extra = append(p.extra, time.Duration(end-start-wd))
		}
	}
	return
}
