package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"snet"
	"snet/internal/journal"
)

// streamSource is the coordination program of the stream and durable
// workloads: a box, an index split over a box, a type-routed choice and a
// filter that strips the split key.
const streamSource = `
net bench
{
    box inc  ((x) -> (x));
    box mix  ((x, <k>) -> (x, <k>));
    box hot  ((x, <hot>) -> (x));
    box cool ((x, <cool>) -> (x));
} connect
    inc .. mix!<k> .. (hot | cool) .. [ {<k>} -> {} ]
`

// The box bodies, as plain functions: the network runs them as boxes, the
// sequential baseline calls them directly, and the checker composes them
// into the closed form of every output.
func incFn(x int) int    { return x + 1 }
func mixFn(x, k int) int { return 3*x + k }
func hotFn(x int) int    { return x + 1000 }
func coolFn(x int) int   { return 2*x - 1 }
func expected(in input) int { // the whole network's effect on one input
	x := mixFn(incFn(in.x), in.k)
	if in.hot {
		return hotFn(x)
	}
	return coolFn(x)
}

var (
	symX    = snet.InternLabel("x")
	symK    = snet.InternLabel("k")
	symSeq  = snet.InternLabel("seq")
	symHot  = snet.InternLabel("hot")
	symCool = snet.InternLabel("cool")
)

const (
	numKeys    = 8      // bounded key set of the index split
	openRate   = 20_000 // offered records/s in the open-loop phase
	openTick   = 250 * time.Microsecond
	openWindow = 50 * time.Millisecond // latency quantiles are taken per window
	setupReps  = 31
	restartRep = 31
	satBursts  = 20
	chunkRecs  = 256 // records per throughput sample
	prefixRecs = 500 // acked records ahead of the held ones on restart
)

// input is one generated record, a pure function of (seed, seq).
type input struct {
	x, k int
	hot  bool
}

// streamGen derives every input from the seed: the key set and its skew,
// and the share of records routed to the hot branch.
type streamGen struct {
	seed     uint64
	keys     [numKeys]int
	cum      [numKeys]float64 // cumulative key weights
	hotShare float64
}

func newStreamGen(seed uint64) *streamGen {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	g := &streamGen{seed: seed, hotShare: 0.4 + 0.2*rng.Float64()}
	perm := rng.Perm(64)
	skew := 0.8 + 0.4*rng.Float64() // Zipf-like exponent
	total := 0.0
	for i := range g.keys {
		g.keys[i] = perm[i]
		total += 1 / math.Pow(float64(i+1), skew)
		g.cum[i] = total
	}
	for i := range g.cum {
		g.cum[i] /= total
	}
	return g
}

func (g *streamGen) at(seq int) input {
	h := mix64(g.seed*0x9e3779b97f4a7c15 + uint64(seq))
	u := unitFloat(mix64(h ^ 0xa5a5))
	ki := 0
	for ki < numKeys-1 && u >= g.cum[ki] {
		ki++
	}
	return input{x: int(h % 1_000_000), k: g.keys[ki], hot: unitFloat(mix64(h^0x5a5a)) < g.hotShare}
}

// record builds the network input for seq.
func (g *streamGen) record(seq int) *snet.Record {
	in := g.at(seq)
	r := snet.NewRecord().SetFieldSym(symX, in.x).SetTagSym(symSeq, seq).SetTagSym(symK, in.k)
	if in.hot {
		return r.SetTagSym(symHot, 1)
	}
	return r.SetTagSym(symCool, 1)
}

// hold parks the records of one restart in the mix box — one per split
// replica — until the instance is stopped, so they are accepted (and, on
// durable, journaled) but never complete.
type hold struct {
	from    int           // records with seq >= from are held
	arrived chan struct{} // one token per parked record
	release chan struct{}
}

// checker verifies every output against the closed form of its input and
// tracks which seqs arrived, to find losses and duplicates.
type checker struct {
	gen        *streamGen
	expect     func(input) int // the closed form; expected unless a test corrupts it
	seen       []uint64        // bitset over seq
	delivered  int
	wrong, dup int
}

func (c *checker) check(r *snet.Record) (seq int) {
	seq, okSeq := r.TagSym(symSeq)
	x, okX := r.FieldSym(symX)
	xi, isInt := x.(int)
	if !okSeq || !okX || !isInt || seq < 0 || r.NumFields() != 1 || r.NumTags() != 1 {
		c.wrong++
		return -1
	}
	if xi != c.expect(c.gen.at(seq)) {
		c.wrong++
	}
	for seq/64 >= len(c.seen) {
		c.seen = append(c.seen, 0)
	}
	if c.seen[seq/64]&(1<<(seq%64)) != 0 {
		c.dup++
	} else {
		c.seen[seq/64] |= 1 << (seq % 64)
		c.delivered++
	}
	return seq
}

// missing counts the seqs in [lo, hi) that never arrived.
func (c *checker) missing(lo, hi int) int {
	n := 0
	for s := lo; s < hi; s++ {
		if s/64 >= len(c.seen) || c.seen[s/64]&(1<<(s%64)) == 0 {
			n++
		}
	}
	return n
}

// streamApp is one stream or durable workload run.
type streamApp struct {
	durable  bool
	dir      string // journal root (durable)
	gen      *streamGen
	chk      *checker
	tr       *tracer      // nil when untraced
	phase    atomic.Int64 // current coarse span, parent of fine spans
	hold     atomic.Pointer[hold]
	calls    [4]paddedCount // box executions: inc, mix, hot, cool
	fsStats  fsStats        // traced journal seam counters (durable)
	nextSeq  int
	res      *result
	links    []snet.LinkStats
	linksPer int // links of one instance
	// setupStart sums the Start spans of the setups, apart from those of
	// the restarts.
	setupStart time.Duration
}

type paddedCount struct {
	atomic.Int64
	_ [56]byte
}

// box kinds in calls order
var boxNames = [4]string{"inc", "mix", "hot", "cool"}

func (a *streamApp) registry() *snet.Registry {
	reg := snet.NewRegistry()
	bodies := [4]func(c *snet.BoxCall) error{
		func(c *snet.BoxCall) error {
			c.Emit(c.NewRecord().SetFieldSym(symX, incFn(c.FieldSym(symX).(int))))
			return nil
		},
		func(c *snet.BoxCall) error {
			if h := a.hold.Load(); h != nil && c.TagSym(symSeq) >= h.from {
				h.arrived <- struct{}{}
				<-h.release
			}
			k := c.TagSym(symK)
			c.Emit(c.NewRecord().SetFieldSym(symX, mixFn(c.FieldSym(symX).(int), k)).SetTagSym(symK, k))
			return nil
		},
		func(c *snet.BoxCall) error {
			c.Emit(c.NewRecord().SetFieldSym(symX, hotFn(c.FieldSym(symX).(int))))
			return nil
		},
		func(c *snet.BoxCall) error {
			c.Emit(c.NewRecord().SetFieldSym(symX, coolFn(c.FieldSym(symX).(int))))
			return nil
		},
	}
	for i, body := range bodies {
		count := &a.calls[i]
		if a.tr == nil {
			reg.RegisterBox(boxNames[i], func(c *snet.BoxCall) error {
				count.Add(1)
				return body(c)
			})
			continue
		}
		kind := a.tr.kind("box." + boxNames[i])
		reg.RegisterBox(boxNames[i], func(c *snet.BoxCall) error {
			count.Add(1)
			start := a.tr.now()
			err := body(c)
			a.tr.record(kind, int64(c.TagSym(symSeq)), a.phase.Load(), start, a.tr.now())
			return err
		})
	}
	return reg
}

// options returns the network options; durable runs journal into dir.
func (a *streamApp) options(dir string) snet.Options {
	if !a.durable {
		return snet.Options{}
	}
	d := &snet.Durability{Dir: dir, Fsync: snet.FsyncBatch}
	if a.tr != nil {
		d.FS = newTracedFS(journal.DirFS(dir), a.tr, &a.phase, &a.fsStats)
	}
	return snet.Options{Durability: d}
}

func (a *streamApp) step(kind string, fn func()) time.Duration {
	return a.tr.timed(kind, a.phase.Load(), fn)
}

// setup parses and compiles the program, builds the network and starts an
// instance: everything a user pays before the first record.
func (a *streamApp) setup(dir string) (*snet.Entity, *snet.Instance, time.Duration, error) {
	var span int64
	if a.tr != nil {
		span = a.tr.begin(a.tr.kind("setup"), -1, 0)
		a.phase.Store(span)
	}
	start := time.Now()
	var prog *snet.Program
	var res *snet.CompileResult
	var err error
	a.step("Parse", func() { prog, err = snet.Parse(streamSource) })
	if err != nil {
		return nil, nil, 0, fmt.Errorf("parse: %w", err)
	}
	reg := a.registry()
	a.step("CompileProgram", func() { res, err = snet.CompileProgram(prog, reg) })
	if err != nil {
		return nil, nil, 0, fmt.Errorf("compile: %w", err)
	}
	ent, ok := res.Net("bench")
	if !ok {
		return nil, nil, 0, errors.New("compile: net bench missing")
	}
	var net *snet.Network
	a.step("NewNetwork", func() { net = snet.NewNetwork(ent, a.options(dir)) })
	var inst *snet.Instance
	a.setupStart += a.step("Start", func() { inst = net.Start() })
	took := time.Since(start)
	if a.tr != nil {
		a.tr.end(span)
	}
	return ent, inst, took, nil
}

// beginPhase opens a coarse span that the phase's fine spans name as parent.
func (a *streamApp) beginPhase(name string) func() {
	if a.tr == nil {
		return func() {}
	}
	id := a.tr.begin(a.tr.kind(name), -1, 0)
	a.phase.Store(id)
	return func() {
		a.tr.end(id)
		a.phase.Store(0)
	}
}

// send feeds one record, as an ingress span when traced.
func (a *streamApp) send(inst *snet.Instance, seq int) bool {
	r := a.gen.record(seq)
	if a.tr == nil {
		return inst.Send(r)
	}
	start := a.tr.now()
	ok := inst.Send(r)
	a.tr.record(a.tr.kind("Send"), int64(seq), a.phase.Load(), start, a.tr.now())
	return ok
}

// errStall reports outputs that stopped arriving: records were lost.
var errStall = errors.New("outputs stopped arriving")

const stallTimeout = 20 * time.Second

// receive takes the next output and checks it. The egress span, when
// traced, includes the wait for the record.
func (a *streamApp) receive(inst *snet.Instance, timer *time.Timer) (int, error) {
	var start int64
	if a.tr != nil {
		start = a.tr.now()
	}
	select {
	case r, ok := <-inst.Out:
		return a.accept(r, ok, start)
	default:
	}
	timer.Reset(stallTimeout)
	select {
	case r, ok := <-inst.Out:
		return a.accept(r, ok, start)
	case <-timer.C:
		return -1, errStall
	}
}

func (a *streamApp) accept(r *snet.Record, ok bool, start int64) (int, error) {
	if !ok {
		return -1, errors.New("output stream closed early")
	}
	seq := a.chk.check(r)
	if a.tr != nil {
		a.tr.record(a.tr.kind("Out"), int64(seq), a.phase.Load(), start, a.tr.now())
	}
	return seq, nil
}

// satPhase runs satBursts saturating bursts, each on a fresh instance of
// ent. It returns the median delivery rate over all chunks of chunkRecs
// records, the median CPU time per record over the bursts, and the records
// fed by all bursts, the warm-up included, with their summed cost.
//
// Both medians are what make the figures repeatable on a shared host:
// a chunk lasts about a millisecond, so the host preempting the process
// moves the few chunks it lands in, not the median; and fresh instances
// sample the batching states the transport settles into, which persist
// for the life of an instance. CPU time does not count time preempted.
func (a *streamApp) satPhase(ent *snet.Entity, d time.Duration) (rate, cpuUS float64, n int, total cost, err error) {
	defer a.beginPhase("saturate")()
	var rates, cpus []float64
	// Burst -1 warms the process up — heap growth, first-use paths — and
	// is not measured.
	for k := -1; k < satBursts; k++ {
		dir := filepath.Join(a.dir, fmt.Sprintf("burst-%d", k))
		inst := snet.NewNetwork(ent, a.options(dir)).Start()
		var warm []float64
		into := &rates
		if k < 0 {
			into = &warm
		}
		m, c, err := a.burst(inst, d/satBursts, into)
		if err != nil {
			inst.Stop()
			return 0, 0, 0, total, err
		}
		a.collect(inst)
		n += m
		total = total.plus(c)
		if k >= 0 {
			cpus = append(cpus, us(c.cpu)/float64(m))
		}
	}
	return median(rates), median(cpus), n, total, nil
}

// collect adds a finished instance's transport counters and failures to
// the run and closes it.
func (a *streamApp) collect(inst *snet.Instance) {
	ls := inst.LinkStats()
	a.links = append(a.links, ls...)
	a.linksPer = len(ls)
	a.res.errors += inst.ErrCount()
	dead, dropped := inst.DeadLetters()
	a.res.deadLetters += len(dead) + dropped
	if err := inst.Close(); err != nil {
		a.res.fail("instance: %v", err)
	}
}

// burst feeds records to a fresh instance as fast as it takes them for d.
// It appends to rates the delivery rate of every chunk of chunkRecs
// records delivered within d, and returns the records fed and the process
// cost of feeding and delivering all of them.
func (a *streamApp) burst(inst *snet.Instance, d time.Duration, rates *[]float64) (n int, c cost, err error) {
	seq0 := a.nextSeq
	var stop atomic.Bool
	fed := make(chan int, 1)
	before := snapshot()
	go func() {
		i := 0
		for !stop.Load() && a.send(inst, seq0+i) {
			i++
		}
		fed <- i
	}()
	got := 0
	last := before.wall
	timer := time.NewTimer(stallTimeout)
	defer timer.Stop()
	for {
		if _, err := a.receive(inst, timer); err != nil {
			stop.Store(true)
			return 0, c, err
		}
		got++
		if got%chunkRecs == 0 {
			now := time.Now()
			*rates = append(*rates, chunkRecs/now.Sub(last).Seconds())
			last = now
			if now.Sub(before.wall) >= d {
				break
			}
		}
	}
	stop.Store(true)
	n = -1
	for n < 0 {
		var start int64
		if a.tr != nil {
			start = a.tr.now()
		}
		timer.Reset(stallTimeout)
		select {
		case n = <-fed:
		case r, ok := <-inst.Out:
			if _, err := a.accept(r, ok, start); err != nil {
				return 0, c, err
			}
			got++
		case <-timer.C:
			return 0, c, errStall
		}
	}
	for ; got < n; got++ {
		if _, err := a.receive(inst, timer); err != nil {
			return 0, c, err
		}
	}
	a.nextSeq += n
	return n, snapshot().since(before), nil
}

// openPhase offers records at openRate for d, paced per openTick. It
// returns each record's latency from its due time to its arrival on Out,
// grouped by the openWindow its due time falls in, and how late the
// generator sent each record.
func (a *streamApp) openPhase(inst *snet.Instance, d time.Duration) (lat [][]float64, lag []float64, err error) {
	defer a.beginPhase("open-loop")()
	seq0 := a.nextSeq
	due := func(i int) time.Duration { return time.Duration(i) * time.Second / openRate }
	total := int(d * openRate / time.Second)
	start := time.Now()
	lags := make(chan []float64, 1)
	var stop atomic.Bool
	go func() {
		out := make([]float64, 0, total)
		for i := 0; i < total && !stop.Load(); {
			el := time.Since(start)
			for ; i < total && due(i) <= el; i++ {
				out = append(out, ms(time.Since(start)-due(i)))
				if !a.send(inst, seq0+i) {
					stop.Store(true)
					break
				}
			}
			nap(openTick - el%openTick)
		}
		lags <- out
	}()
	lat = make([][]float64, (d+openWindow-1)/openWindow)
	timer := time.NewTimer(stallTimeout)
	defer timer.Stop()
	for got := 0; got < total; got++ {
		seq, err := a.receive(inst, timer)
		if err != nil {
			// The feeder may be blocked in Send: stop the instance so it
			// returns, then wait for it.
			stop.Store(true)
			inst.Stop()
			<-lags
			return nil, nil, err
		}
		arrived := time.Since(start)
		if seq >= seq0 {
			w := due(seq-seq0) / openWindow
			lat[w] = append(lat[w], ms(arrived-due(seq-seq0)))
		}
	}
	a.nextSeq += total
	return lat, <-lags, nil
}

// nap sleeps in the kernel rather than on a runtime timer: an idle Go
// runtime rounds sub-millisecond timer sleeps up to a millisecond, which
// would make the generator's lateness, and so every latency, depend on
// whether the runtime happened to be idle.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// windowQuantile is the median over windows of each window's q-quantile,
// so one stall of the host moves one window, not the result. It fails the
// run when a window leaves fewer than ten samples beyond q.
func (r *result) windowQuantile(windows [][]float64, q float64) float64 {
	var per []float64
	for _, w := range windows {
		if !enoughBeyond(len(w), q) {
			r.fail("a latency window has %d samples, too few for its %.3g quantile", len(w), q)
			continue
		}
		per = append(per, quantile(w, q))
	}
	return median(per)
}

// pump feeds n fresh records from a goroutine and drains n outputs.
func (a *streamApp) pump(inst *snet.Instance, n int) error {
	seq0 := a.nextSeq
	a.nextSeq += n
	go func() {
		for i := 0; i < n && a.send(inst, seq0+i); i++ {
		}
	}()
	timer := time.NewTimer(stallTimeout)
	defer timer.Stop()
	for i := 0; i < n; i++ {
		if _, err := a.receive(inst, timer); err != nil {
			return err
		}
	}
	return nil
}

// heldSeqs picks, from seq0 on, the first record of every key: one record
// to park in each replica of the split. It returns them and the next seq.
func (a *streamApp) heldSeqs(seq0 int) ([]int, int) {
	var held []int
	have := map[int]bool{}
	seq := seq0
	for ; len(held) < numKeys; seq++ {
		if k := a.gen.at(seq).k; !have[k] {
			have[k] = true
			held = append(held, seq)
		}
	}
	return held, seq
}

// stopHolding stops an instance whose mix replicas hold parked records.
// It unparks them only once the instance is stopping: the released records
// then find every downstream receiver gone and are discarded, unacked.
func (a *streamApp) stopHolding(inst *snet.Instance, h *hold) {
	stopped := make(chan struct{})
	go func() {
		inst.Stop()
		close(stopped)
	}()
	<-inst.Done()
	close(h.release)
	<-stopped
	a.hold.Store(nil)
}

// restart runs one crash and recovery: an instance delivers prefixRecs
// records, parks one record in every mix replica, and is stopped; a fresh
// instance then brings the parked records out again — by journal replay
// (durable) or because the client sends them again (stream). It returns
// the time from the fresh Start until every parked record was delivered,
// and how many records the journal replayed.
func (a *streamApp) restart(ent *snet.Entity, dir string) (time.Duration, int, error) {
	net := snet.NewNetwork(ent, a.options(dir))
	first := net.Start()
	if err := a.pump(first, prefixRecs); err != nil {
		first.Stop()
		return 0, 0, fmt.Errorf("restart prefix: %w", err)
	}
	held, next := a.heldSeqs(a.nextSeq)
	h := &hold{from: a.nextSeq, arrived: make(chan struct{}, len(held)), release: make(chan struct{})}
	a.nextSeq = next
	a.hold.Store(h)
	for _, seq := range held {
		a.send(first, seq)
	}
	wait := time.NewTimer(stallTimeout)
	defer wait.Stop()
	for range held {
		select {
		case <-h.arrived:
		case <-wait.C:
			a.stopHolding(first, h)
			return 0, 0, errors.New("restart: held records never reached mix")
		}
	}
	a.res.errors += first.ErrCount()
	a.stopHolding(first, h)

	end := a.beginPhase("restart")
	defer end()
	start := time.Now()
	var second *snet.Instance
	a.step("Start", func() { second = net.Start() })
	replayed := 0
	if a.durable {
		var err error
		a.step("Recover", func() { replayed, err = second.Recover(dir) })
		if err != nil {
			second.Stop()
			return 0, 0, fmt.Errorf("recover: %w", err)
		}
	} else {
		for _, seq := range held {
			a.send(second, seq)
		}
	}
	timer := time.NewTimer(stallTimeout)
	defer timer.Stop()
	want := map[int]bool{}
	for _, seq := range held {
		want[seq] = true
	}
	for range held {
		seq, err := a.receive(second, timer)
		if err != nil {
			second.Stop()
			return 0, 0, fmt.Errorf("restart: %w", err)
		}
		if !want[seq] {
			a.res.fail("restart delivered seq %d, which was not held", seq)
		}
		delete(want, seq)
	}
	took := time.Since(start)
	if err := second.Close(); err != nil {
		a.res.fail("restart instance: %v", err)
	}
	return took, replayed, nil
}

// sequentialRate calls the box functions directly on one goroutine, on the
// same input records, and returns records per second: the baseline the
// coordinated network's throughput is compared with.
func (a *streamApp) sequentialRate(n int) float64 {
	sink := 0
	start := time.Now()
	for seq := 0; seq < n; seq++ {
		r := a.gen.record(seq)
		xv, _ := r.FieldSym(symX)
		k, _ := r.TagSym(symK)
		x := mixFn(incFn(xv.(int)), k)
		if r.HasTagSym(symHot) {
			x = hotFn(x)
		} else {
			x = coolFn(x)
		}
		out := snet.NewRecord().SetFieldSym(symX, x).SetTagSym(symSeq, seq)
		sink += out.NumFields()
	}
	rate := float64(n) / time.Since(start).Seconds()
	if sink != n {
		a.res.fail("sequential baseline built %d records, want %d", sink, n)
	}
	return rate
}

// runStream runs the stream or durable workload once. The phase lengths
// split the measured seconds: a saturating feed, an open-loop feed, and
// (timed separately) the restarts.
func runStream(cfg runConfig, durable bool, tr *tracer) (*result, error) {
	res := newResult()
	a := &streamApp{durable: durable, dir: cfg.dir, gen: newStreamGen(cfg.seed), tr: tr, res: res}
	a.chk = &checker{gen: a.gen, expect: expected}
	gcBefore := snapshot()

	var setups []float64
	var ent *snet.Entity
	var inst *snet.Instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.Close(); err != nil {
				res.fail("setup instance: %v", err)
			}
		}
		var took time.Duration
		var err error
		ent, inst, took, err = a.setup(filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	res.set("setup_s", median(setups))
	res.set("core.entities", float64(inst.OptStats().EntitiesAfter))

	callsBefore := a.boxCalls()
	var boxBefore time.Duration
	if tr != nil {
		boxBefore = a.boxTime()
	}
	fsBefore := a.fsSnapshot()
	rate, cpuUS, n, c, err := a.satPhase(ent, cfg.seconds/2)
	if err != nil {
		inst.Stop()
		return nil, fmt.Errorf("saturating phase: %w", err)
	}
	fsAfter := a.fsSnapshot()
	res.attempted += n
	res.set("ops_per_s", rate)
	res.set("cpu_us_per_op", cpuUS)
	res.set("allocs_per_op", float64(c.mallocs)/float64(n))
	res.set("alloc_bytes_per_op", float64(c.bytes)/float64(n))
	res.set("goruntime.gc_cycles_per_op", float64(c.gcCycles)/float64(n))
	res.set("core.box_calls_per_record", float64(a.boxCalls()-callsBefore)/float64(n))
	if tr != nil {
		boxSelf := us(a.boxTime()-boxBefore) / float64(n)
		journalUS := us(fsAfter.writeTime-fsBefore.writeTime) / float64(n)
		res.set("core.box_self_us_per_record", boxSelf)
		res.set("core.coord_cpu_us_per_record", cpuUS-boxSelf)
		res.set("cpu.unexplained_share", 1-(boxSelf+journalUS)/cpuUS)
		res.set("journal.write_calls_per_record", float64(fsAfter.writes-fsBefore.writes)/float64(n))
		res.set("journal.bytes_per_record", float64(fsAfter.written-fsBefore.written)/float64(n))
		res.set("journal.write_us_per_record", journalUS)
	}

	lat, lag, err := a.openPhase(inst, cfg.seconds/2)
	if err != nil {
		inst.Stop()
		return nil, fmt.Errorf("open-loop phase: %w", err)
	}
	samples := 0
	for _, w := range lat {
		samples += len(w)
	}
	res.attempted += samples
	res.set("latency_p50_ms", res.windowQuantile(lat, 0.5))
	res.set("latency_p90_ms", res.windowQuantile(lat, 0.9))
	res.set("latency_p99_ms", res.windowQuantile(lat, 0.99))
	res.note("latency: %d samples at %d rec/s offered, from due time; median over %v windows of their p50, p90 and p99",
		samples, openRate, openWindow)
	res.set("gen.lag_p99_ms", quantile(lag, 0.99))
	res.set("gen.lag_max_ms", quantile(lag, 1))

	a.collect(inst)
	a.linkStats()
	if miss := a.chk.missing(0, a.nextSeq); miss > 0 {
		res.lost += miss
	}

	var restarts []float64
	fsBefore = a.fsSnapshot()
	var replayOpen time.Duration
	for i := 0; i < restartRep; i++ {
		startsBefore := a.spanTime("Start")
		took, replayed, err := a.restart(ent, filepath.Join(cfg.dir, fmt.Sprintf("restart-%d", i)))
		if err != nil {
			return nil, err
		}
		replayOpen += a.spanTime("Start") - startsBefore
		res.attempted += numKeys
		restarts = append(restarts, took.Seconds())
		if durable && replayed != numKeys {
			res.fail("recovery replayed %d records, want exactly %d", replayed, numKeys)
		}
		res.set("journal.recovered_records", float64(replayed))
	}
	res.set("restart_s", median(restarts))
	fsAfter = a.fsSnapshot()
	res.wrong, res.dup = a.chk.wrong, a.chk.dup

	gc := snapshot().since(gcBefore)
	res.set("goruntime.gc_pause_ms_total", ms(gc.gcPause))
	if tr != nil {
		res.set("journal.sync_calls", float64(fsAfter.syncs))
		res.set("journal.sync_ms_total", ms(a.spanTime("fs.Sync")))
		res.set("journal.replay_read_bytes", float64(fsAfter.read-fsBefore.read)/restartRep)
		if durable {
			res.set("journal.replay_open_ms", ms(replayOpen)/restartRep)
		}
		seq := a.sequentialRate(200_000)
		res.set("core.sequential_records_per_s", seq)
		res.set("core.overhead_ratio", seq/rate)
		res.set("core.record_overhead_us", cpuUS-1e6/seq)
		setupSpans(tr, res, a.setupStart, setupReps)
	}
	return res, nil
}

func (a *streamApp) boxCalls() int64 {
	var n int64
	for i := range a.calls {
		n += a.calls[i].Load()
	}
	return n
}

// boxTime is the summed duration of every traced box body.
func (a *streamApp) boxTime() time.Duration {
	var d time.Duration
	for _, b := range boxNames {
		d += a.spanTime("box." + b)
	}
	return d
}

func (a *streamApp) spanTime(kind string) time.Duration {
	if a.tr == nil {
		return 0
	}
	_, d := a.tr.sum(kind)
	return d
}

type fsSnap struct {
	writes, syncs, written, read int64
	writeTime                    time.Duration
}

func (a *streamApp) fsSnapshot() fsSnap {
	return fsSnap{writes: a.fsStats.writes.Load(), syncs: a.fsStats.syncs.Load(),
		written: a.fsStats.written.Load(), read: a.fsStats.read.Load(),
		writeTime: a.spanTime("fs.Write")}
}

// linkStats reduces the per-link transport counters of the saturating and
// open-loop instances.
func (a *streamApp) linkStats() {
	links := a.links
	var sent, recv, batches, full, idle, timer, steals int64
	for _, l := range links {
		sent += l.SentRecords
		recv += l.RecvRecords
		batches += l.SentBatches
		full += l.FullFlushes
		idle += l.IdleFlushes
		timer += l.TimerFlushes
		steals += l.Steals
	}
	r := a.res
	r.set("stream.links", float64(a.linksPer))
	if a.nextSeq > 0 {
		r.set("stream.hops_per_record", float64(sent)/float64(a.nextSeq))
	}
	if batches > 0 {
		b := float64(batches)
		r.set("stream.records_per_batch", float64(recv)/b)
		r.set("stream.full_flush_share", float64(full)/b)
		r.set("stream.idle_flush_share", float64(idle)/b)
		r.set("stream.timer_flush_share", float64(timer)/b)
		r.set("stream.steal_share", float64(steals)/b)
	}
}

// setupSpans reports the mean duration of each setup step over reps setups
// and the share of setup time no step accounts for. startTime sums the
// setups' Start spans (a workload may also Start outside setup).
func setupSpans(tr *tracer, res *result, startTime time.Duration, reps int) {
	for kind, name := range map[string]string{"Parse": "lang.parse_ms",
		"CompileProgram": "compile.compile_ms", "NewNetwork": "core.optimize_ms"} {
		_, d := tr.sum(kind)
		res.set(name, ms(d)/float64(reps))
	}
	res.set("core.start_ms", ms(startTime)/float64(reps))
	self := tr.selfTimes()[tr.kind("setup")]
	_, whole := tr.sum("setup")
	res.set("setup.unexplained_share", float64(self)/float64(whole))
}
