package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/traffic"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run: the contract's result line plus what
// the results file keeps for -compare.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Detail carries numbers that qualify the metrics (generator
	// lateness, sample counts) without being metrics themselves.
	Detail map[string]float64 `json:"detail,omitempty"`
	Error  string             `json:"error,omitempty"`
	Env    envBlock           `json:"env"`
}

// envBlock records where a run was measured.
type envBlock struct {
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Conns     int    `json:"conns"`
}

func (e *env) envBlock() envBlock {
	b := envBlock{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Conns: e.conns, CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is
	// recorded when there is one.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		b.Commit = strings.TrimSpace(string(out))
	}
	return b
}

// phases splits a run's measured seconds: a paced warm-up that is sent
// but not counted, the paced open-loop phase, and the saturated
// closed-loop phase. The observe phase between them is sized by count.
type phases struct{ warm, paced, saturated time.Duration }

func splitSeconds(seconds int) phases {
	total := time.Duration(seconds) * time.Second
	return phases{warm: total / 10, paced: total / 2, saturated: total * 4 / 10}
}

// setUpRepeatedly sets the workload up reps times, tearing down all but
// the last, and returns the live rig with the per-repetition set-up and
// build times.
func (e *env) setUpRepeatedly(ctx context.Context, w workloadDef, seed int64, reps int) (*rig, []float64, []float64, error) {
	var setups, builds []float64
	for i := 0; ; i++ {
		r, err := e.setUp(ctx, w, seed)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups, builds = append(setups, r.setupS), append(builds, r.buildS)
		if i == reps-1 {
			return r, setups, builds, nil
		}
		r.tearDown()
	}
}

// workloadStream materialises the workload's deterministic request
// stream for dur at its paced rate.
func workloadStream(w workloadDef, seed int64, dur time.Duration) ([]traffic.Request, error) {
	eng, err := traffic.NewEngine(traffic.Config{
		Workload: w.Shape, Seed: seed, Deployments: w.Deployments, Mix: w.Mix,
	})
	if err != nil {
		return nil, err
	}
	return eng.Stream(w.Rate, dur)
}

// pacedStats summarises the counted part of a paced phase.
type pacedStats struct {
	// latencies are admitted predict requests' completion-minus-due
	// times in ms, in due order. The stream's own ingest lines load the
	// system but are not timed here; the ingest phase times that lane.
	latencies []float64
	// schedLate is sent-minus-due for requests whose connection was
	// idle at the due time; connWait is sent-minus-due for all.
	schedLate, connWait []float64
	ledger              clientLedger
}

// summarisePaced folds the samples into stats. Requests due before warm
// are counted in the ledger but not in any latency.
func summarisePaced(samples []sample, warm time.Duration) pacedStats {
	var ps pacedStats
	for _, s := range samples {
		if !s.fired {
			continue
		}
		ps.ledger.sent++
		if s.class != traffic.Admitted {
			ps.ledger.failed++
			continue
		}
		if s.ingest {
			ps.ledger.ingests++
		} else {
			ps.ledger.predicts++
		}
		if s.due < warm {
			continue
		}
		wait := ms(s.sent - s.due)
		ps.connWait = append(ps.connWait, wait)
		if s.idle {
			ps.schedLate = append(ps.schedLate, wait)
		}
		if !s.ingest {
			ps.latencies = append(ps.latencies, s.latencyMs())
		}
	}
	return ps
}

func (c *clientLedger) add(o clientLedger) {
	c.predicts += o.predicts
	c.ingests += o.ingests
	c.sent += o.sent
	c.direct += o.direct
	c.failed += o.failed
}

// runWorkload is one benchmark run of one workload: set up, verify the
// outputs, drive the phases, reconcile the ledgers, tear down. With
// trace set it produces the per-layer metrics instead (layers.go).
func (e *env) runWorkload(ctx context.Context, w workloadDef, seed int64, seconds int, trace bool, outDir string) (res runResult) {
	res = runResult{Workload: w.Name, Seed: seed, Trace: trace, Seconds: seconds,
		Metrics: map[string]metricValue{}, Detail: map[string]float64{}, Env: e.envBlock()}
	fail := func(err error) runResult {
		res.Correct, res.Error = false, err.Error()
		res.Attempted = max(res.Attempted, 1)
		return res
	}

	// The cold compile of a fresh checkout is a cost of the checkout, not
	// of a run: pay it before the clock starts. Every timed set-up still
	// runs `go build`, as a cache hit.
	if _, err := os.Stat(e.bin); err != nil {
		if err := e.buildCLI(ctx); err != nil {
			return fail(err)
		}
	}
	reps := w.SetupReps
	if trace {
		reps = 1
	}
	r, setups, builds, err := e.setUpRepeatedly(ctx, w, seed, reps)
	if err != nil {
		return fail(err)
	}
	defer r.tearDown()

	// Verification before any timing.
	ref, err := model.LoadFile(r.primaryPath)
	if err != nil {
		return fail(err)
	}
	var ledger clientLedger
	n, err := verifyOutputs(r.front, ref, seed, w)
	ledger.sent, ledger.predicts = int64(n), int64(n)
	res.Attempted = ledger.sent
	if err != nil {
		return fail(err)
	}

	if trace {
		return e.traceWorkload(ctx, r, ref, seed, res, ledger, outDir)
	}

	ph := splitSeconds(seconds)
	stream, err := workloadStream(w, seed, ph.warm+ph.paced)
	if err != nil {
		return fail(err)
	}
	tgt := newTarget(r.front, e.conns)

	paced := summarisePaced(runPaced(ctx, tgt, stream, e.conns, nil), ph.warm)
	ledger.add(paced.ledger)

	queries, err := queryPhase(r.front, queryCount)
	ledger.sent += int64(len(queries))
	if err != nil {
		return fail(err)
	}

	sat := runSaturated(ctx, tgt, stream, e.conns, ph.saturated)
	ledger.add(sat.ledger)
	tgt.Client.CloseIdleConnections()

	// Memory is read before the ingest burst: the ingest handler's
	// per-request scan buffer would otherwise be most of every
	// workload's high-water mark and hide the model under it.
	rss, err := r.peakRSSMB()
	if err != nil {
		return fail(err)
	}

	lines, err := ingestLines(seed, w.Deployments, ingestCount)
	if err != nil {
		return fail(err)
	}
	ingests, err := ingestPhase(ctx, r.front, lines, e.conns)
	if err != nil {
		return fail(err)
	}
	ledger.sent += int64(len(ingests))
	ledger.ingests += int64(len(ingests))

	res.Attempted, res.Failed = ledger.sent, ledger.failed
	if ctx.Err() != nil {
		return fail(ctx.Err())
	}
	server, err := readServerLedger(r)
	if err != nil {
		return fail(err)
	}
	if ledger.failed == 0 {
		if err := reconcile(ledger, server); err != nil {
			return fail(err)
		}
	}

	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.Name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
				return
			}
		}
		panic("bench: unregistered end-to-end metric " + name)
	}
	set("setup_s", median(setups))
	set("build_s", median(builds))
	set("build_quality", r.buildQuality)
	set("paced_p50_ms", percentile(paced.latencies, 0.50))
	set("paced_p95_ms", quietestChunkPercentile(paced.latencies, 0.95))
	set("saturated_rps", median(sat.windowRPS))
	set("ingest_p50_ms", percentile(ingests, 0.50))
	set("ingest_p95_ms", percentile(ingests, 0.95))
	set("query_p50_ms", median(queries))
	set("peak_rss_mb", rss)

	res.Detail["paced_samples"] = float64(len(paced.latencies))
	res.Detail["paced_p95_whole_phase_ms"] = percentile(paced.latencies, 0.95)
	res.Detail["paced_p99_whole_phase_ms"] = percentile(paced.latencies, 0.99)
	res.Detail["sched_late_p99_ms"] = percentile(paced.schedLate, 0.99)
	res.Detail["conn_wait_p99_ms"] = percentile(paced.connWait, 0.99)
	res.Detail["paced_rate_share_of_saturated"] = w.Rate / median(sat.windowRPS)
	res.Detail["saturated_window_min_rps"] = percentile(sat.windowRPS, 0)
	res.Detail["saturated_window_max_rps"] = percentile(sat.windowRPS, 1)
	res.Detail["server_p50_ms"] = server.p50
	res.Detail["server_p99_ms"] = server.p99
	res.Detail["telemetry_dropped"] = float64(server.dropped)
	res.Correct = ledger.failed == 0
	if !res.Correct {
		res.Error = fmt.Sprintf("%d of %d requests failed", ledger.failed, ledger.sent)
	}
	return res
}
