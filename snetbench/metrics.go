package main

// metric describes one reported number: its unit and direction, the layer
// it belongs to, and — for per-layer metrics — which end-to-end metric it
// is predicted to move and on which workloads. The catalogue is the single
// place the benchmark's metric names are defined; the result line, the
// report and BENCHMARK.json all follow it.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	layer  string
	moves  string // end-to-end metric this one should move
	on     string // workloads it applies to; zero elsewhere
	bound  float64
}

// runSeconds is the measured time of one run in BENCHMARK.json.
const runSeconds = 20

// endToEnd are measured with tracing off and reported by every workload.
// "op" is one record on stream and durable, one render on render-wire.
var endToEnd = []metric{
	{name: "setup_s", bound: 0.25, unit: "s", better: "lower", layer: "lang+compile+core+wire", on: "all"},
	{name: "cpu_us_per_op", bound: 0.25, unit: "us", better: "lower", layer: "e2e", on: "all"},
	{name: "allocs_per_op", bound: 0.1, unit: "count", better: "lower", layer: "e2e", on: "all"},
	{name: "alloc_bytes_per_op", bound: 0.1, unit: "B", better: "lower", layer: "e2e", on: "all"},
}

const (
	onAll    = "all"
	onStream = "stream,durable"
	onDur    = "durable"
	onRender = "render-wire"
)

// perLayer are measured in the traced run. A metric of a layer a workload
// bypasses reads 0 there: that is the measured "no work" prediction.
var perLayer = []metric{
	// Throughput, restart time and latency, measured untraced like the
	// end-to-end metrics but not gated: on a shared host, preemption and
	// wake-up latency move them by a quarter (restarts) to several-fold
	// (latency) between identical runs.
	{name: "ops_per_s", better: "higher", unit: "1/s", layer: "e2e", on: onAll},
	{name: "restart_s", better: "lower", unit: "s", layer: "e2e", on: onAll},
	{name: "latency_p50_ms", better: "lower", unit: "ms", layer: "e2e", on: onStream},
	{name: "latency_p90_ms", better: "lower", unit: "ms", layer: "e2e", on: onStream},
	{name: "latency_p99_ms", better: "lower", unit: "ms", layer: "e2e", on: onStream},
	{name: "render_p50_ms", better: "lower", unit: "ms", layer: "e2e", on: onRender},
	{name: "render_p90_ms", better: "lower", unit: "ms", layer: "e2e", on: onRender},

	{name: "lang.parse_ms", better: "lower", unit: "ms", layer: "lang", moves: "setup_s", on: onAll},
	{name: "compile.compile_ms", better: "lower", unit: "ms", layer: "compile", moves: "setup_s", on: onAll},
	{name: "core.optimize_ms", better: "lower", unit: "ms", layer: "core", moves: "setup_s", on: onAll},
	{name: "core.start_ms", better: "lower", unit: "ms", layer: "core", moves: "setup_s", on: onAll},
	{name: "wire.join_ms", better: "lower", unit: "ms", layer: "wire", moves: "setup_s", on: onRender},
	{name: "setup.unexplained_share", better: "lower", unit: "ratio", layer: "harness", moves: "setup_s", on: onAll},

	{name: "core.entities", better: "lower", unit: "count", layer: "core", moves: "cpu_us_per_op", on: onAll},
	{name: "core.box_calls_per_record", better: "lower", unit: "count", layer: "core", moves: "cpu_us_per_op", on: onStream},
	{name: "core.box_self_us_per_record", better: "lower", unit: "us", layer: "core", moves: "cpu_us_per_op", on: onStream},
	{name: "core.coord_cpu_us_per_record", better: "lower", unit: "us", layer: "core", moves: "cpu_us_per_op", on: onStream},
	{name: "cpu.unexplained_share", better: "lower", unit: "ratio", layer: "harness", moves: "cpu_us_per_op", on: onAll},
	{name: "core.errors", better: "lower", unit: "count", layer: "core", moves: "failed_ratio", on: onAll},
	{name: "core.dead_letters", better: "lower", unit: "count", layer: "core", moves: "failed_ratio", on: onAll},
	{name: "failed_ratio", better: "lower", unit: "ratio", layer: "e2e", moves: "failed_ratio", on: onAll},

	{name: "stream.links", better: "lower", unit: "count", layer: "stream", moves: "cpu_us_per_op", on: onStream},
	{name: "stream.hops_per_record", better: "lower", unit: "count", layer: "stream", moves: "cpu_us_per_op", on: onStream},
	{name: "stream.records_per_batch", better: "higher", unit: "count", layer: "stream", moves: "cpu_us_per_op", on: onStream},
	{name: "stream.full_flush_share", better: "higher", unit: "ratio", layer: "stream", moves: "cpu_us_per_op", on: onStream},
	{name: "stream.idle_flush_share", better: "lower", unit: "ratio", layer: "stream", moves: "cpu_us_per_op", on: onStream},
	{name: "stream.timer_flush_share", better: "lower", unit: "ratio", layer: "stream", moves: "latency_p90_ms", on: onStream},
	{name: "stream.steal_share", better: "lower", unit: "ratio", layer: "stream", moves: "cpu_us_per_op", on: onStream},

	{name: "journal.write_calls_per_record", better: "lower", unit: "count", layer: "journal", moves: "cpu_us_per_op", on: onDur},
	{name: "journal.bytes_per_record", better: "lower", unit: "B", layer: "journal", moves: "cpu_us_per_op", on: onDur},
	{name: "journal.write_us_per_record", better: "lower", unit: "us", layer: "journal", moves: "cpu_us_per_op", on: onDur},
	{name: "journal.sync_calls", better: "lower", unit: "count", layer: "journal", moves: "latency_p90_ms", on: onDur},
	{name: "journal.sync_ms_total", better: "lower", unit: "ms", layer: "journal", moves: "latency_p90_ms", on: onDur},
	{name: "journal.replay_read_bytes", better: "lower", unit: "B", layer: "journal", moves: "restart_s", on: onDur},
	{name: "journal.replay_open_ms", better: "lower", unit: "ms", layer: "journal", moves: "restart_s", on: onDur},
	{name: "journal.recovered_records", better: "higher", unit: "count", layer: "journal", moves: "restart_s", on: onDur},

	{name: "core.exec_calls_per_render", better: "lower", unit: "count", layer: "core", moves: "render_p90_ms", on: onRender},
	{name: "core.exec_wait_ms_per_render", better: "lower", unit: "ms", layer: "core", moves: "render_p90_ms", on: onRender},
	{name: "core.box_exec_ms_per_render", better: "lower", unit: "ms", layer: "core", moves: "render_p50_ms", on: onRender},

	{name: "dist.transfers_per_render", better: "lower", unit: "count", layer: "dist", moves: "render_p90_ms", on: onRender},
	{name: "dist.batches_per_render", better: "lower", unit: "count", layer: "dist", moves: "render_p90_ms", on: onRender},
	{name: "dist.model_kib_per_render", better: "lower", unit: "KiB", layer: "dist", moves: "render_p90_ms", on: onRender},
	{name: "dist.busy_imbalance", better: "lower", unit: "ratio", layer: "dist", moves: "render_p90_ms", on: onRender},
	{name: "dist.steals_per_render", better: "lower", unit: "count", layer: "dist", moves: "render_p90_ms", on: onRender},

	{name: "wire.remote_execs_per_render", better: "higher", unit: "count", layer: "wire", moves: "render_p50_ms", on: onRender},
	{name: "wire.local_execs_per_render", better: "lower", unit: "count", layer: "wire", moves: "render_p50_ms", on: onRender},
	{name: "wire.frames_per_render", better: "lower", unit: "count", layer: "wire", moves: "render_p50_ms", on: onRender},
	{name: "wire.kib_per_render", better: "lower", unit: "KiB", layer: "wire", moves: "render_p50_ms", on: onRender},
	{name: "wire.conn_writes_per_render", better: "lower", unit: "count", layer: "wire", moves: "render_p50_ms", on: onRender},
	{name: "wire.conn_write_ms_per_render", better: "lower", unit: "ms", layer: "wire", moves: "render_p50_ms", on: onRender},
	{name: "wire.remote_call_ms_p50", better: "lower", unit: "ms", layer: "wire", moves: "render_p50_ms", on: onRender},
	{name: "wire.call_overhead_ms_p50", better: "lower", unit: "ms", layer: "wire", moves: "render_p50_ms", on: onRender},
	{name: "wire.faults", better: "lower", unit: "count", layer: "wire", moves: "failed_ratio", on: onRender},

	{name: "raytrace.solve_ms_per_render", better: "lower", unit: "ms", layer: "raytrace", moves: "render_p50_ms", on: onRender},
	{name: "raytrace.sequential_ms", better: "lower", unit: "ms", layer: "raytrace", moves: "render_p50_ms", on: onRender},
	{name: "snetray.speedup", better: "higher", unit: "ratio", layer: "snetray", moves: "render_p50_ms", on: onRender},

	{name: "goruntime.gc_cycles_per_op", better: "lower", unit: "count", layer: "goruntime", moves: "latency_p90_ms", on: onAll},
	{name: "goruntime.gc_pause_ms_total", better: "lower", unit: "ms", layer: "goruntime", moves: "latency_p90_ms", on: onAll},
	{name: "gen.lag_p99_ms", better: "lower", unit: "ms", layer: "harness", moves: "latency_p90_ms", on: onStream},
	{name: "gen.lag_max_ms", better: "lower", unit: "ms", layer: "harness", moves: "latency_p90_ms", on: onStream},
	{name: "trace.overhead_share", better: "lower", unit: "ratio", layer: "harness", moves: "cpu_us_per_op", on: onAll},

	// Reference values, not gated: single-threaded baselines and the
	// constants simnet's paper model was fitted with.
	{name: "core.sequential_records_per_s", better: "higher", unit: "1/s", layer: "core", moves: "cpu_us_per_op", on: onStream},
	{name: "core.overhead_ratio", better: "lower", unit: "ratio", layer: "core", moves: "cpu_us_per_op", on: onStream},
	{name: "core.record_overhead_us", better: "lower", unit: "us", layer: "core", moves: "cpu_us_per_op", on: onStream},
	{name: "simnet.record_overhead_us", better: "lower", unit: "us", layer: "simnet", on: onAll},
	{name: "snetray.box_tax", better: "lower", unit: "ratio", layer: "snetray", moves: "render_p50_ms", on: onRender},
	{name: "simnet.box_tax", better: "lower", unit: "ratio", layer: "simnet", on: onAll},
}

// workloads are the names --workload accepts, with the reason each exists.
var workloads = []struct{ name, why string }{
	{"stream", "coordination-bound S-Net pipeline: stream, core and record do the work; journal, dist, wire and raytrace do none"},
	{"durable", "the stream network with the FsyncBatch journal plus a timed crash recovery; the difference from stream isolates durability"},
	{"render-wire", "the paper's Fig. 4 ray tracer on a loopback wire cluster: raytrace, dist scheduling and wire framing dominate"},
}
