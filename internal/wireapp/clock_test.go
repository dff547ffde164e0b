// Application-level exercise of the clock seam: the coordinator's entire
// fault detector — heartbeat ticker AND wall-clock reads — is driven by a
// clock.Fake injected through the public CoordinatorConfig.Clock, with a
// real pipeline running over a real socket underneath. No sleeps, no
// unexported hooks: detection happens exactly when the test advances the
// fake past the liveness timeout, and the application keeps completing
// runs afterwards on local slots.
package wireapp

import (
	"testing"
	"time"

	"snet/internal/clock"
	"snet/internal/leakcheck"
	"snet/internal/wire"
)

func TestSyntheticClockDrivesLivenessOverRealPipeline(t *testing.T) {
	leakcheck.Check(t)
	fc := clock.NewFake(time.Unix(5_000_000, 0))
	cl, err := wire.Listen("127.0.0.1:0", wire.CoordinatorConfig{
		Workers: 1, CPUsPerNode: 2, JoinTimeout: 20 * time.Second,
		HeartbeatInterval: time.Second,
		LivenessTimeout:   4 * time.Second,
		Clock:             fc.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWorker(wire.WorkerConfig{})
	for name, fn := range PipelineWorkerBoxes(0) {
		w.Register(name, fn)
	}
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(cl.Addr().String()) }()
	defer func() {
		cl.Close()
		<-workerErr
	}()
	if err := cl.WaitReady(); err != nil {
		t.Fatal(err)
	}

	// A full pipeline run with the fleet healthy: records cross the
	// socket, fuse executes remotely. Synthetic time never moves, so the
	// detector cannot misfire mid-run.
	const seqs = 6
	res, err := RunPipeline(cl, seqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != ExpectedPipelineSum(seqs) {
		t.Fatalf("healthy run sum = %d, want %d", res.Sum, ExpectedPipelineSum(seqs))
	}
	if ws := cl.WireStats(); ws.LiveWorkers != 1 {
		t.Fatalf("worker not live after a successful run: %+v", ws)
	}

	// Advance past the liveness timeout, which delivers one heartbeat
	// tick: the sweep must compare the synthetic idle time against the
	// stamps it recorded with the same clock and declare the worker dead —
	// no wall-clock time decides it. A gossip frame the worker sends after
	// the run (a load report, a steal request) can land between an Advance
	// and its sweep and rightly refresh liveness, so each poll advances
	// again until a sweep finds the link silent.
	deadline := time.Now().Add(10 * time.Second)
	for cl.WireStats().LiveWorkers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never declared dead: %+v", cl.WireStats())
		}
		fc.Advance(5 * time.Second)
		time.Sleep(time.Millisecond)
	}
	if err := <-workerErr; err == nil {
		t.Fatal("worker Run returned nil after its connection was declared dead")
	}
	workerErr <- nil // keep the deferred drain non-blocking

	// The application survives its only worker's death: the next run
	// completes on the coordinator's local slots.
	res, err = RunPipeline(cl, seqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != ExpectedPipelineSum(seqs) {
		t.Fatalf("post-death run sum = %d, want %d", res.Sum, ExpectedPipelineSum(seqs))
	}
}
