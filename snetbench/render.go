package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"snet"
	"snet/internal/dist"
	"snet/internal/geom"
	"snet/internal/raytrace"
	"snet/internal/record"
	"snet/internal/sched"
	"snet/internal/snetray"
	"snet/internal/wire"
	"snet/internal/wireapp"
)

// The render-wire workload: the paper's Fig. 4 network with the factoring
// policy, on a coordinator plus two in-process wire workers over loopback
// TCP — three nodes of one CPU slot each — rendering one image at a time.
const (
	renderW, renderH = 64, 48
	renderTasks      = 24 // divisible by 3, as factoring needs
	renderTokens     = 6  // two node tokens per node
	renderNodes      = 3  // coordinator + 2 workers
	renderWorkers    = 2
	renderObjects    = 100
	fleetReps        = 5
	restartJoins     = 21
	baselineReps     = 3
	minRenders       = 100
)

var symSect = record.Intern("sect")

type renderApp struct {
	spec  wireapp.SceneSpec
	scene *raytrace.Scene
	ref   *raytrace.Image
	tr    *tracer
	res   *result
	phase atomic.Int64 // current coarse span
	key   atomic.Int64 // current render index

	// Worker-side solve timings by section index, for the traced platform
	// to attribute a remote call's time.
	mu     sync.Mutex
	solves map[int][2]int64 // start, duration (ns since the tracer's t0)

	setupStart time.Duration
}

// fleet is a coordinator and its workers.
type fleet struct {
	cl   *wire.Cluster
	ln   *tracedListener // nil when untraced
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

func (f *fleet) close() error {
	err := f.cl.Close()
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(append([]error{err}, f.errs...)...)
}

// workerBoxes is the box table every worker registers; traced, the solver
// records its own start and duration.
func (a *renderApp) workerBoxes() map[string]snet.BoxFunc {
	boxes := snetray.WorkerBoxes(0)
	if a.tr == nil {
		return boxes
	}
	kind := a.tr.kind("worker.solve")
	for name, fn := range boxes {
		boxes[name] = func(c *snet.BoxCall) error {
			start := a.tr.now()
			err := fn(c)
			end := a.tr.now()
			a.tr.record(kind, a.key.Load(), a.phase.Load(), start, end)
			idx := c.FieldSym(symSect).(raytrace.Section).Index
			a.mu.Lock()
			a.solves[idx] = [2]int64{start, end - start}
			a.mu.Unlock()
			return err
		}
	}
	return boxes
}

// solveOf returns the worker-side timing of the section input carries.
func (a *renderApp) solveOf(input *record.Record) (start, dur int64, ok bool) {
	v, has := input.FieldSym(symSect)
	if !has {
		return 0, 0, false
	}
	idx := v.(raytrace.Section).Index
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.solves[idx]
	delete(a.solves, idx)
	return t[0], t[1], ok
}

// startFleet listens on loopback, starts the workers and waits until both
// have joined.
func (a *renderApp) startFleet() (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	var l net.Listener = ln
	if a.tr != nil {
		f.ln = &tracedListener{Listener: ln, tr: a.tr, parent: &a.phase,
			kRead: a.tr.kind("conn.Read"), kWrite: a.tr.kind("conn.Write")}
		l = f.ln
	}
	f.cl, err = wire.Serve(l, wire.CoordinatorConfig{Workers: renderWorkers, CPUsPerNode: 1,
		Ext: wireapp.RaytraceExt(a.spec), JoinTimeout: 20 * time.Second})
	if err != nil {
		return nil, err
	}
	addr := f.cl.Addr().String()
	for i := 0; i < renderWorkers; i++ {
		w := wire.NewWorker(wire.WorkerConfig{Ext: wireapp.RaytraceExt(a.spec)})
		for name, fn := range a.workerBoxes() {
			w.Register(name, fn)
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := w.Run(addr); err != nil {
				f.mu.Lock()
				f.errs = append(f.errs, fmt.Errorf("worker: %w", err))
				f.mu.Unlock()
			}
		}()
	}
	if err := f.cl.WaitReady(); err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

func (a *renderApp) step(kind string, fn func()) time.Duration {
	return a.tr.timed(kind, a.phase.Load(), fn)
}

// setup joins a fleet and brings the Fig. 4 program up on it once: parse,
// compile, NewNetwork and Start. Renders compile their own network again
// (inside snetray.Render, timed as render time); this is the first-use
// cost a user pays before the first render.
func (a *renderApp) setup() (*fleet, time.Duration, error) {
	var span int64
	if a.tr != nil {
		span = a.tr.begin(a.tr.kind("setup"), -1, 0)
		a.phase.Store(span)
	}
	start := time.Now()
	var f *fleet
	var err error
	a.step("Join", func() { f, err = a.startFleet() })
	if err != nil {
		return nil, 0, fmt.Errorf("fleet join: %w", err)
	}
	var merger, dynamic *snet.Program
	a.step("Parse", func() {
		if merger, err = snet.Parse(snetray.MergerSource); err == nil {
			dynamic, err = snet.Parse(snetray.DynamicSource)
		}
	})
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("parse: %w", err), f.close())
	}
	// The setup instance only has to come up, so its boxes are inert.
	reg := snet.NewRegistry()
	for _, name := range []string{"splitter", "solve", "init", "merge", "genImg"} {
		reg.RegisterBox(name, func(*snet.BoxCall) error { return nil })
	}
	var ent *snet.Entity
	a.step("CompileProgram", func() {
		var res *snet.CompileResult
		if res, err = snet.CompileProgram(merger, reg); err != nil {
			return
		}
		m, _ := res.Net("merger")
		reg.RegisterNet("merger", m)
		if res, err = snet.CompileProgram(dynamic, reg); err != nil {
			return
		}
		ent, _ = res.Net("raytracing_dyn")
	})
	if err == nil && ent == nil {
		err = errors.New("net raytracing_dyn missing")
	}
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("compile: %w", err), f.close())
	}
	var nw *snet.Network
	a.step("NewNetwork", func() { nw = snet.NewNetwork(ent, snet.Options{Platform: f.cl}) })
	var inst *snet.Instance
	a.setupStart += a.step("Start", func() { inst = nw.Start() })
	took := time.Since(start)
	if a.tr != nil {
		a.tr.end(span)
	}
	if err := inst.Close(); err != nil {
		a.res.fail("setup instance: %v", err)
	}
	return f, took, nil
}

// render runs one coordinated render and checks its image.
func (a *renderApp) render(plat snet.Platform, i int) (time.Duration, *snetray.Result) {
	a.key.Store(int64(i))
	var span int64
	if a.tr != nil {
		span = a.tr.begin(a.tr.kind("render"), int64(i), 0)
		a.phase.Store(span)
	}
	start := time.Now()
	res, err := snetray.Render(snetray.Config{Scene: a.scene, W: renderW, H: renderH,
		Nodes: renderNodes, CPUs: 1, Tasks: renderTasks, Tokens: renderTokens,
		Mode: snetray.Dynamic, Policy: snetray.FactoringPolicy, Platform: plat})
	took := time.Since(start)
	if a.tr != nil {
		a.tr.end(span)
	}
	switch {
	case err != nil:
		a.res.fail("render %d: %v", i, err)
	case !bytes.Equal(res.Image.Pix, a.ref.Pix):
		a.res.badImages++
	default:
		a.res.deadLetters += len(res.DeadLetters) + res.DeadDropped
	}
	a.res.attempted++
	return took, res
}

// sectionsMS times RenderSection over the render's sections on one
// goroutine: the solver's work without the runtime around it.
func (a *renderApp) sectionsMS() (float64, error) {
	spans, err := sched.PaperFactoring(renderH, renderTasks)
	if err != nil {
		return 0, err
	}
	var reps []float64
	for r := 0; r < baselineReps; r++ {
		start := time.Now()
		for i, s := range spans {
			raytrace.RenderSection(a.scene, raytrace.Section{Index: i, W: renderW, H: renderH, Y0: s.Lo, Y1: s.Hi})
		}
		reps = append(reps, ms(time.Since(start)))
	}
	return median(reps), nil
}

// renderScene is the geometry every render-wire run draws: the unbalanced
// scene of the repository's wire benchmarks. Its geometry is fixed because
// render cost follows geometry — across scene seeds the sequential render
// time ranges over more than 2x — and the seed is meant to vary the inputs,
// not the amount of work.
var renderScene = wireapp.SceneSpec{Unbalanced: true, Objects: renderObjects, Seed: 2010}

// newRenderApp builds the scene for seed and its sequential reference
// image. The seed tints the lights, the background and the ambient term:
// the image changes with the seed, every ray traced stays the same.
func newRenderApp(seed uint64, tr *tracer, res *result) *renderApp {
	a := &renderApp{spec: renderScene, scene: renderScene.Build(), tr: tr, res: res, solves: map[int][2]int64{}}
	rng := rand.New(rand.NewPCG(seed, 0x7ace))
	tint := func(lo, hi float64) geom.Vec3 {
		c := func() float64 { return lo + (hi-lo)*rng.Float64() }
		return geom.V(c(), c(), c())
	}
	// The scene is the process-wide one wireapp hands the coordinator and
	// the in-process workers alike; it is tinted before any render starts.
	a.scene.Background = tint(0, 0.2)
	a.scene.Ambient = tint(0.04, 0.12)
	for i := range a.scene.Lights {
		a.scene.Lights[i].Intensity = tint(0.3, 0.9)
	}
	a.ref, _ = raytrace.Render(a.scene, renderW, renderH)
	return a
}

func runRender(cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	a := newRenderApp(cfg.seed, tr, res)
	gcBefore := snapshot()

	var setups []float64
	var f *fleet
	for i := 0; i < fleetReps; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				res.fail("fleet close: %v", err)
			}
		}
		var took time.Duration
		var err error
		if f, took, err = a.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	res.set("setup_s", median(setups))

	var plat snet.Platform = f.cl
	var tp *tracedPlatform
	if tr != nil {
		tp = &tracedPlatform{clusterPlatform: f.cl, tr: tr, parent: &a.phase, key: &a.key,
			kExec: tr.kind("Exec"), started: a.solveOf}
		plat = tp
	}
	// One render outside the measurement: lazy set-up inside the runtime
	// and the codecs is paid once per fleet, not per render.
	a.render(plat, -1)

	wsBefore, dsBefore := f.cl.WireStats(), f.cl.Stats()
	var writesBefore, writeNSBefore int64
	if f.ln != nil {
		writesBefore, writeNSBefore = f.ln.writes.Load(), f.ln.writeNS.Load()
	}
	before := snapshot()
	var times []time.Duration
	remoteMin, remoteMax := int64(-1), int64(0)
	prevRemote := wsBefore.RemoteExecs
	// Run for the measured time, and long enough to leave ten renders
	// beyond p90.
	for i := 0; time.Since(before.wall) < cfg.seconds || i < minRenders; i++ {
		took, r := a.render(plat, i)
		if r != nil {
			res.set("core.entities", float64(r.Opt.EntitiesAfter))
		}
		times = append(times, took)
		remote := f.cl.WireStats().RemoteExecs
		if d := remote - prevRemote; remoteMin < 0 || d < remoteMin {
			remoteMin = d
		}
		remoteMax = max(remoteMax, remote-prevRemote)
		prevRemote = remote
	}
	c := snapshot().since(before)
	ws, ds := f.cl.WireStats(), f.cl.Stats()
	n := float64(len(times))
	lat := durationsMS(times)
	p50 := quantile(lat, 0.5)
	// One render at a time: the closed loop's rate is the inverse of the
	// render time, taken at its median so that the host preempting a few
	// renders does not move it.
	res.set("ops_per_s", 1000/p50)
	res.set("cpu_us_per_op", us(c.cpu)/n)
	res.set("allocs_per_op", float64(c.mallocs)/n)
	res.set("alloc_bytes_per_op", float64(c.bytes)/n)
	res.set("goruntime.gc_cycles_per_op", float64(c.gcCycles)/n)
	res.set("render_p50_ms", p50)
	res.set("render_p90_ms", quantile(lat, 0.9))
	res.note("render time: %d renders, p50 and p90", len(times))
	if !enoughBeyond(len(times), 0.9) {
		res.fail("%d renders are too few for a p90", len(times))
	}
	res.faults = int(ws.Failovers + ws.Retries + ws.Timeouts)
	res.set("wire.faults", float64(res.faults))
	res.set("wire.remote_execs_per_render", float64(ws.RemoteExecs-wsBefore.RemoteExecs)/n)
	res.set("wire.remote_execs_min", float64(remoteMin))
	res.set("wire.remote_execs_max", float64(remoteMax))
	res.set("wire.local_execs_per_render", float64(ws.LocalExecs-wsBefore.LocalExecs)/n)
	res.set("wire.frames_per_render", float64(ws.FramesSent+ws.FramesRecv-wsBefore.FramesSent-wsBefore.FramesRecv)/n)
	res.set("wire.kib_per_render", float64(ws.BytesSent+ws.BytesRecv-wsBefore.BytesSent-wsBefore.BytesRecv)/1024/n)
	res.set("dist.transfers_per_render", float64(ds.Transfers-dsBefore.Transfers)/n)
	res.set("dist.batches_per_render", float64(ds.Batches-dsBefore.Batches)/n)
	res.set("dist.model_kib_per_render", float64(ds.Bytes-dsBefore.Bytes)/1024/n)
	res.set("dist.steals_per_render", float64(ds.Steals-dsBefore.Steals)/n)
	res.set("dist.busy_imbalance", imbalance(ds, dsBefore))

	if tp != nil {
		tp.mu.Lock()
		execMS := ms(time.Duration(tp.execNS)) / n
		res.set("core.exec_calls_per_render", float64(tp.execs)/n)
		res.set("core.exec_wait_ms_per_render", ms(time.Duration(tp.waitNS))/n)
		res.set("core.box_exec_ms_per_render", execMS)
		res.set("wire.remote_call_ms_p50", quantile(durationsMS(tp.remote), 0.5))
		res.set("wire.call_overhead_ms_p50", quantile(durationsMS(tp.extra), 0.5))
		localSolve := tp.solve
		tp.mu.Unlock()
		_, workerSolve := tr.sum("worker.solve")
		solveMS := ms(workerSolve+localSolve) / n
		res.set("raytrace.solve_ms_per_render", solveMS)
		res.set("cpu.unexplained_share", 1-execMS*1000/(us(c.cpu)/n))
		res.set("wire.conn_writes_per_render", float64(f.ln.writes.Load()-writesBefore)/n)
		res.set("wire.conn_write_ms_per_render", ms(time.Duration(f.ln.writeNS.Load()-writeNSBefore))/n)
	}

	// A restart is a fresh coordinator and workers, timed until the fleet
	// has joined; one render on it (untimed) checks it works.
	var restarts []float64
	for i := 0; i < restartJoins; i++ {
		if err := f.close(); err != nil {
			res.fail("fleet close: %v", err)
		}
		start := time.Now()
		var err error
		if f, err = a.startFleet(); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		restarts = append(restarts, time.Since(start).Seconds())
		a.render(f.cl, len(times)+i)
	}
	res.set("restart_s", median(restarts))
	if err := f.close(); err != nil {
		res.fail("fleet close: %v", err)
	}
	res.set("goruntime.gc_pause_ms_total", ms(snapshot().since(gcBefore).gcPause))

	if tr != nil {
		var seq []float64
		for r := 0; r < baselineReps; r++ {
			start := time.Now()
			raytrace.Render(a.scene, renderW, renderH)
			seq = append(seq, ms(time.Since(start)))
		}
		seqMS := median(seq)
		res.set("raytrace.sequential_ms", seqMS)
		res.set("snetray.speedup", seqMS/p50)
		standalone, err := a.sectionsMS()
		if err != nil {
			return nil, err
		}
		res.set("snetray.box_tax", res.metrics["raytrace.solve_ms_per_render"]/standalone)
		setupSpans(tr, res, a.setupStart, fleetReps)
		_, join := tr.sum("Join")
		res.set("wire.join_ms", ms(join)/fleetReps)
	}
	return res, nil
}

// imbalance is max/mean of the per-node busy time between two snapshots.
func imbalance(now, prev dist.Stats) float64 {
	var sum, top time.Duration
	for i, b := range now.Busy {
		d := b
		if i < len(prev.Busy) {
			d -= prev.Busy[i]
		}
		sum += d
		top = max(top, d)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / (float64(sum) / float64(len(now.Busy)))
}
