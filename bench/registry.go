package main

// The benchmark's vocabulary: every workload and metric name lives here
// and nowhere else. BENCHMARK.json at the repo root pins the same names
// (bench_test.go checks the two agree in both directions), so a later
// PR cannot quietly rename a workload or drop a metric.

// metricDef is one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before -compare calls
// it regressed; per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the system sees, measured with tracing
// off. Every workload reports every one of them: each run is the whole
// product lifecycle (build, serve, ingest, query) at that workload's
// settings, so no metric is ever undefined.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"build_s", "s", "lower", 0.20},
	{"build_quality", "score", "higher", 0.05},
	{"paced_p50_ms", "ms", "lower", 0.25},
	{"paced_p95_ms", "ms", "lower", 0.25},
	{"saturated_rps", "1/s", "higher", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_p95_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer lists the traced run's numbers, grouped by the package they
// time from outside. README.md records which end-to-end metric each is
// expected to move and on which workload.
var perLayer = []metricDef{
	// The generator itself: validity of the paced numbers.
	{Name: "driver.sched_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.conn_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.sent", Unit: "count", Better: "higher"},
	{Name: "driver.ok", Unit: "count", Better: "higher"},
	{Name: "driver.failed", Unit: "count", Better: "lower"},
	{Name: "driver.trace_overhead_pct", Unit: "%", Better: "lower"},
	// internal/cluster, through a real `overton route` child.
	{Name: "cluster.hop_us", Unit: "us", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.max_replica_share", Unit: "share", Better: "lower"},
	// internal/serve.
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.req_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "bytes", Better: "lower"},
	// internal/record.
	{Name: "record.parse_us", Unit: "us", Better: "lower"},
	{Name: "record.load_recs_per_s", Unit: "1/s", Better: "higher"},
	// internal/deploy.
	{Name: "deploy.predict_us", Unit: "us", Better: "lower"},
	{Name: "deploy.self_us", Unit: "us", Better: "lower"},
	{Name: "deploy.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "deploy.server_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "deploy.admitted", Unit: "count", Better: "higher"},
	{Name: "deploy.shed", Unit: "count", Better: "lower"},
	{Name: "deploy.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "deploy.shadow_mirror_us", Unit: "us", Better: "lower"},
	// internal/model and the kernels under it.
	{Name: "model.predict_b1_us", Unit: "us", Better: "lower"},
	{Name: "model.predict_b16_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "model.allocs_per_predict", Unit: "count", Better: "lower"},
	{Name: "model.load_ms", Unit: "ms", Better: "lower"},
	{Name: "model.fold_ms", Unit: "ms", Better: "lower"},
	{Name: "model.table_bytes", Unit: "bytes", Better: "lower"},
	{Name: "model.eval_recs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tensor.matmul_f64_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_f32_us", Unit: "us", Better: "lower"},
	// internal/telemetry.
	{Name: "telemetry.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.emitted", Unit: "count", Better: "higher"},
	{Name: "telemetry.written", Unit: "count", Better: "higher"},
	{Name: "telemetry.dropped_share", Unit: "share", Better: "lower"},
	{Name: "telemetry.bytes_per_event", Unit: "bytes", Better: "lower"},
	// internal/sliceql.
	{Name: "sliceql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sliceql.scan_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sliceql.slice_report_us", Unit: "us", Better: "lower"},
	// internal/fleetstate.
	{Name: "fleetstate.append_us", Unit: "us", Better: "lower"},
	{Name: "fleetstate.wal_bytes", Unit: "bytes", Better: "lower"},
	{Name: "fleetstate.recover_ms", Unit: "ms", Better: "lower"},
	// The build side.
	{Name: "labelmodel.combine_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.plan_us", Unit: "us", Better: "lower"},
	{Name: "model.new_ms", Unit: "ms", Better: "lower"},
	{Name: "train.epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "train.recs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "search.run_s", Unit: "s", Better: "lower"},
	{Name: "search.trials", Unit: "count", Better: "higher"},
	{Name: "monitor.report_ms", Unit: "ms", Better: "lower"},
	{Name: "model.save_ms", Unit: "ms", Better: "lower"},
	// internal/traffic.
	{Name: "traffic.stream_gen_ms", Unit: "ms", Better: "lower"},
}

// modelSpec is one model the set-up builds with the overton CLI. The
// train seed is fixed so a -search samples the same trials on every
// run; the data comes from the benchmark seed.
type modelSpec struct {
	// Records is `overton datagen -n`.
	Records int
	// Tuning names a file under bench/testdata ("" = the default space).
	Tuning string
	// Search is `overton train -search` (1 = the default choice only).
	Search int
	// QualityFloor fails the run when the built model's dev quality is
	// below it: well under anything seen on seeds 1..10 (light and heavy
	// 0.92-0.95, searched 0.94-0.96), so only a broken build trips it.
	QualityFloor float64
}

var (
	// light is the default choice (hash-32, CNN, h=32): the round trip
	// is front-end-bound.
	light = modelSpec{Records: 2000, Search: 1, QualityFloor: 0.88}
	// heavy (hash-64, BiGRU, h=64, attention) makes the forward pass
	// most of the round trip.
	heavy = modelSpec{Records: 2000, Tuning: "heavy_tuning.json", Search: 1, QualityFloor: 0.88}
	// searched is the engineer's loop: twice the data and a three-trial
	// search over training hyperparameters. The architecture is pinned
	// to light's so the model it serves costs the same whichever trial
	// wins.
	searched = modelSpec{Records: 4000, Tuning: "loop_tuning.json", Search: 3, QualityFloor: 0.90}
)

// workloadDef is one benchmark workload: what gets built, how it is
// deployed, and the traffic it takes. Names are permanent; paced rates
// are constants sized to a quarter to a third of measured capacity
// (README.md has the sizing rule).
type workloadDef struct {
	Name string
	Why  string
	// Primary is the served model; Shadow, when set, is mirrored behind it.
	Primary modelSpec
	Shadow  *modelSpec
	// Precision is passed to `overton serve -precision` when non-empty.
	Precision string
	// Replicas > 0 puts an `overton route` front over that many serve
	// children, each holding every name in Deployments.
	Replicas    int
	Deployments []string
	// Durable adds -state-dir (journal + ingest WAL, one fsync per
	// ingested line) and two live -slice predicates.
	Durable bool
	// Shape/Rate/Mix drive traffic.Engine: the named shape at Rate
	// requests per second, Mix of them ingest lines.
	Shape string
	Rate  float64
	Mix   float64
	// SetupReps is how many times a run sets up; setup_s and build_s
	// are the medians.
	SetupReps int
}

var workloads = []workloadDef{
	{
		Name:        "serve_light",
		Why:         "light model on one serve process: HTTP parse/encode, record and deploy hand-off are most of the round trip",
		Primary:     light,
		Deployments: []string{"factoid"},
		Shape:       "uniform", Rate: 2000, SetupReps: 3,
	},
	{
		Name:        "serve_heavy",
		Why:         "heavy BiGRU model: the model/tensor/nn forward dominates, front-end changes should barely show",
		Primary:     heavy,
		Deployments: []string{"factoid"},
		Shape:       "uniform", Rate: 800, SetupReps: 2,
	},
	{
		Name:        "serve_heavy_f32",
		Why:         "serve_heavy's byte-identical stream on the f32 plane: a kernel or fold change that helps one precision and costs the other shows",
		Primary:     heavy,
		Precision:   "f32",
		Deployments: []string{"factoid"},
		Shape:       "uniform", Rate: 800, SetupReps: 2,
	},
	{
		Name:        "routed_zipf",
		Why:         "route front over 2 replicas x 3 deployments under hot-key skew: the cluster hop does the added work",
		Primary:     light,
		Replicas:    2,
		Deployments: []string{"fa", "fb", "fc"},
		Shape:       "zipf-hotkey", Rate: 1000, SetupReps: 3,
	},
	{
		Name:        "observed_mixed",
		Why:         "heavy model with state dir, shadow and live slices under 80/20 predict/ingest: writes beside reads, the monitoring half of the paper",
		Primary:     heavy,
		Shadow:      &light,
		Durable:     true,
		Deployments: []string{"factoid"},
		Shape:       "mixed", Rate: 800, Mix: 0.2, SetupReps: 2,
	},
	{
		Name:        "build_loop",
		Why:         "the engineer's loop on twice the data with a 3-trial search, then a smoke serve of the winner: build dominates the run",
		Primary:     searched,
		Deployments: []string{"factoid"},
		Shape:       "uniform", Rate: 2000, SetupReps: 1,
	},
}

// findWorkload returns the named workload definition.
func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
