package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	overton "repro"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/deploy"
	"repro/internal/fleetstate"
	"repro/internal/model"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/sliceql"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/traffic"
	"repro/internal/train"
)

// The traced run. Per-layer numbers come from outside the program: the
// benchmark times its own calls into each package's public functions,
// on the workload's own artifact and the first traceRequests requests
// of the workload's own stream. Every workload reports every layer, so
// a layer the workload's deployment does not use (the router on a
// direct workload, the WAL on a stateless one) is still measured on
// that workload's inputs; README.md says which numbers should move
// which end-to-end metric where.

const (
	// traceRequests is how many stream requests the traced run covers.
	traceRequests = 2000
	// probeRequests sizes the unloaded sequential probes (router hop,
	// direct round trip).
	probeRequests = 500
	// storeAppends is how many single-record WAL appends are timed.
	storeAppends = 200
	// telemetryEmits is how many events the in-process logger probe
	// emits.
	telemetryEmits = 20000
)

// timeIt returns f's wall time.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// p50us times f once per item and returns the median in microseconds.
func p50us(n int, f func(i int)) float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = us(timeIt(func() { f(i) }))
	}
	return percentile(vals, 0.5)
}

// layerRun holds what the probes share.
type layerRun struct {
	e *env
	r *rig
	// m is an in-process copy of the served artifact on the workload's
	// serving precision.
	m   *model.Model
	sch *schema.Schema
	// bodies/recs are the predict requests among the first
	// traceRequests of the stream, raw and parsed.
	bodies [][]byte
	recs   []*record.Record
	// ds is the run's data file, loaded by the first probe.
	ds  *record.Dataset
	out map[string]float64
}

// traceWorkload produces the per-layer metrics and the trace file for
// one workload. res arrives with set-up and verification already done.
func (e *env) traceWorkload(ctx context.Context, r *rig, ref *model.Model, seed int64, res runResult, ledger clientLedger, outDir string) runResult {
	fail := func(err error) runResult {
		res.Correct, res.Error = false, err.Error()
		res.Attempted, res.Failed = ledger.sent, ledger.failed
		return res
	}
	w := r.w
	lr := &layerRun{e: e, r: r, sch: ref.Prog.Schema, out: map[string]float64{}}

	var stream []traffic.Request
	var err error
	genTime := timeIt(func() {
		stream, err = workloadStream(w, seed, time.Duration(float64(traceRequests+1)/w.Rate*float64(time.Second)))
	})
	if err != nil {
		return fail(err)
	}
	if len(stream) < traceRequests {
		return fail(fmt.Errorf("trace: stream has %d of %d requests", len(stream), traceRequests))
	}
	stream = stream[:traceRequests]
	lr.out["traffic.stream_gen_ms"] = ms(genTime)

	// The same paced stream twice: untraced, then traced. The difference
	// in median latency is what recording spans costs. A discarded
	// quarter-length pass first opens the connections and warms both
	// ends, or the first counted pass would pay for that instead.
	tgt := newTarget(r.front, e.conns)
	warm := summarisePaced(runPaced(ctx, tgt, stream[:traceRequests/4], e.conns, nil), 0)
	ledger.add(warm.ledger)
	plain := summarisePaced(runPaced(ctx, tgt, stream, e.conns, nil), 0)
	tr := newTracer(e.conns + 1) // one extra buffer for the replay
	traced := summarisePaced(runPaced(ctx, tgt, stream, e.conns, tr), 0)
	tgt.Client.CloseIdleConnections()
	ledger.add(plain.ledger)
	ledger.add(traced.ledger)
	if ctx.Err() != nil {
		return fail(ctx.Err())
	}
	p50Plain, p50Traced := percentile(plain.latencies, 0.5), percentile(traced.latencies, 0.5)
	lr.out["driver.sched_late_p99_ms"] = percentile(traced.schedLate, 0.99)
	lr.out["driver.conn_wait_p99_ms"] = percentile(traced.connWait, 0.99)
	lr.out["driver.sent"] = float64(traced.ledger.sent)
	lr.out["driver.ok"] = float64(traced.ledger.sent - traced.ledger.failed)
	lr.out["driver.failed"] = float64(traced.ledger.failed)
	lr.out["driver.trace_overhead_pct"] = 100 * (p50Traced - p50Plain) / p50Plain
	res.Detail["paced_p50_ms"] = p50Traced

	if lr.m, err = model.LoadFile(r.primaryPath); err != nil {
		return fail(err)
	}
	if w.Precision != "" {
		prec, err := model.ParsePrecision(w.Precision)
		if err != nil {
			return fail(err)
		}
		if err := lr.m.SetPrecision(prec); err != nil {
			return fail(err)
		}
	}
	for _, req := range stream {
		if req.Ingest {
			continue
		}
		rec, err := parseBody(req.Body, lr.sch)
		if err != nil {
			return fail(err)
		}
		lr.bodies, lr.recs = append(lr.bodies, req.Body), append(lr.recs, rec)
	}

	probes := []func() error{
		lr.probeRecordLoad,
		func() error { return lr.replay(tr, e.conns) },
		func() error { return lr.probeCluster(&ledger) },
		lr.probeDeploy,
		lr.probeModel,
		lr.probeTelemetry,
		lr.probeSliceql,
		lr.probeFleetstate,
		lr.probeBuild,
	}
	for _, probe := range probes {
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		if err := probe(); err != nil {
			return fail(err)
		}
	}
	lr.out["deploy.self_us"] = lr.out["deploy.predict_us"] - lr.out["model.predict_b1_us"]
	lr.out["serve.http_overhead_us"] -= lr.out["serve.handler_us"]

	// Counters the children report, read last so they cover every
	// request above.
	server, err := readServerLedger(r)
	if err != nil {
		return fail(err)
	}
	lr.out["deploy.server_p50_ms"] = server.p50
	lr.out["deploy.server_p99_ms"] = server.p99
	lr.out["deploy.admitted"] = float64(server.admitted)
	lr.out["deploy.shed"] = float64(server.shed)
	lr.out["telemetry.emitted"] = float64(server.predictEvents)
	lr.out["telemetry.written"] = float64(server.written)
	lr.out["telemetry.dropped_share"] = float64(server.dropped) / float64(max(server.predictEvents+server.dropped, 1))
	var telBytes int64
	for _, dir := range r.telDirs {
		files, err := telemetry.StreamFiles(dir, telemetry.StreamPredict)
		if err != nil {
			return fail(err)
		}
		for _, f := range files {
			st, err := os.Stat(filepath.Join(dir, f))
			if err != nil {
				return fail(err)
			}
			telBytes += st.Size()
		}
	}
	lr.out["telemetry.bytes_per_event"] = float64(telBytes) / float64(max(server.written, 1))

	res.Attempted, res.Failed = ledger.sent, ledger.failed
	res.Correct = ledger.failed == 0
	if res.Correct {
		if err := reconcile(ledger, server); err != nil {
			return fail(err)
		}
	} else {
		res.Error = fmt.Sprintf("%d of %d requests failed", ledger.failed, ledger.sent)
	}

	for _, m := range perLayer {
		v, ok := lr.out[m.Name]
		if !ok {
			return fail(fmt.Errorf("trace: layer metric %s was not measured", m.Name))
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	spans := tr.spans()
	for id, self := range selfTimes(spans) {
		if self < 0 {
			return fail(fmt.Errorf("trace: span %d has negative self time %.3fus", id, self))
		}
	}
	tf := traceFile{Workload: w.Name, Seed: seed, SelfP50: selfP50ByName(spans), Spans: spans}
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.Name+".json"), tf); err != nil {
		return fail(err)
	}
	names := make([]string, 0, len(tf.SelfP50))
	for name := range tf.SelfP50 {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Detail["self_p50_us."+name] = tf.SelfP50[name]
	}
	return res
}

// replay runs the traced predict bodies through an in-process copy of
// the serving stack, layer by layer, and records the onion as spans:
// serve.request contains serve.decode, record.parse, deploy.predict
// (which contains model.predict) and serve.encode. The whole handler is
// timed in one call; each inner layer in its own call on the same body,
// laid out back to back inside the handler's span.
func (lr *layerRun) replay(tr *tracer, buf int) error {
	name := lr.r.w.Deployments[0]
	reg := deploy.NewRegistry()
	d := deploy.New(name, lr.m, 1)
	if err := reg.Add(d); err != nil {
		return err
	}
	defer reg.Close()
	handler := serve.NewFleet(reg).Handler()
	path := "/v1/models/" + name + "/predict"

	// Per-request times in microseconds, keyed by the layer metric they
	// become the median of.
	timesUs := map[string][]float64{}
	note := func(metric string, d time.Duration) { timesUs[metric] = append(timesUs[metric], us(d)) }
	var reqBytes, respBytes int
	start := time.Now()
	for i, body := range lr.bodies {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rw := httptest.NewRecorder()
		t0 := time.Since(start)
		h := timeIt(func() { handler.ServeHTTP(rw, req) })
		if rw.Code != http.StatusOK {
			return fmt.Errorf("replay %d: handler status %d: %s", i, rw.Code, rw.Body.Bytes())
		}
		reqBytes += len(body)
		respBytes += rw.Body.Len()

		var wire wirePredict
		var decErr, parseErr, predErr, modelErr, encErr error
		dec := timeIt(func() { decErr = json.NewDecoder(bytes.NewReader(body)).Decode(&wire) })
		var rec *record.Record
		parse := timeIt(func() {
			if rec, parseErr = record.ParsePayloads(wire.Payloads, lr.sch); parseErr == nil {
				parseErr = record.Validate(rec, lr.sch)
			}
		})
		if decErr != nil || parseErr != nil {
			return fmt.Errorf("replay %d: decode %v, parse %v", i, decErr, parseErr)
		}
		var out model.Output
		pred := timeIt(func() { out, _, predErr = d.Predict(rec) })
		mod := timeIt(func() { _, modelErr = lr.m.PredictOne(rec) })
		if predErr != nil || modelErr != nil {
			return fmt.Errorf("replay %d: deploy predict %v, model predict %v", i, predErr, modelErr)
		}
		enc := timeIt(func() { encErr = json.NewEncoder(io.Discard).Encode(wireAnswer{Model: name, Version: 1, Outputs: out}) })
		if encErr != nil {
			return fmt.Errorf("replay %d: encode: %w", i, encErr)
		}
		note("serve.handler_us", h)
		note("serve.decode_us", dec)
		note("record.parse_us", parse)
		note("deploy.predict_us", pred)
		note("model.predict_b1_us", mod)
		note("serve.encode_us", enc)

		root := tr.add(buf, "serve.request", i, noParent, t0, t0+h)
		at := t0
		at += tr.child(buf, "serve.decode", i, root, at, dec)
		at += tr.child(buf, "record.parse", i, root, at, parse)
		dp := tr.add(buf, "deploy.predict", i, root, at, at+pred)
		tr.add(buf, "model.predict", i, dp, at, at+mod)
		at += pred
		tr.child(buf, "serve.encode", i, root, at, enc)
	}
	for metric, vals := range timesUs {
		lr.out[metric] = percentile(vals, 0.5)
	}
	lr.out["serve.req_bytes"] = float64(reqBytes) / float64(len(lr.bodies))
	lr.out["serve.resp_bytes"] = float64(respBytes) / float64(len(lr.bodies))
	return nil
}

// sequentialP50us sends the first n predict bodies one at a time over
// one connection to base and returns the median round trip. The
// requests are counted in ledger; direct marks them as bypassing the
// workload's front.
func (lr *layerRun) sequentialP50us(base string, n int, ledger *clientLedger, direct bool) (float64, error) {
	tgt := newTarget(base, 1)
	defer tgt.Client.CloseIdleConnections()
	dep := lr.r.w.Deployments[0]
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		req := traffic.Request{Deployment: dep, Body: lr.bodies[i%len(lr.bodies)]}
		var out traffic.Outcome
		d := timeIt(func() { out = tgt.Do(context.Background(), req) })
		ledger.sent++
		if direct {
			ledger.direct++
		}
		if out.Class != traffic.Admitted {
			ledger.failed++
			return 0, fmt.Errorf("probe request %d to %s: status %d err %v", i, base, out.Status, out.Err)
		}
		ledger.predicts++
		lat = append(lat, us(d))
	}
	return percentile(lat, 0.5), nil
}

// probeCluster measures the router hop: the same requests through an
// `overton route` child and straight to a replica behind it. A workload
// without a router gets one for the length of the probe.
func (lr *layerRun) probeCluster(ledger *clientLedger) error {
	router := lr.r.router
	if router == nil {
		next := basePort
		extra, err := lr.e.startRouter(lr.r.dir, &next, lr.r.replicas)
		if extra != nil {
			defer extra.stop()
		}
		if err != nil {
			return err
		}
		router = extra
	}
	via, err := lr.sequentialP50us(router.url, probeRequests, ledger, false)
	if err != nil {
		return err
	}
	direct, err := lr.sequentialP50us(lr.r.replicas[0].url, probeRequests, ledger, true)
	if err != nil {
		return err
	}
	lr.out["cluster.hop_us"] = via - direct
	lr.out["serve.http_overhead_us"] = direct // minus serve.handler_us, once both are known

	var cs cluster.ClusterStats
	if err := getJSON(router.url+"/v1/cluster/stats", &cs); err != nil {
		return err
	}
	var total, most, retries, failures int64
	for _, rs := range cs.Replicas {
		total += rs.Requests
		most = max(most, rs.Requests)
		retries += rs.Retries
		failures += rs.Failures
	}
	lr.out["cluster.retries"] = float64(retries)
	lr.out["cluster.failovers"] = float64(failures)
	lr.out["cluster.max_replica_share"] = float64(most) / float64(max(total, 1))
	return nil
}

// probeDeploy times what a deployment adds around the model: the
// admission check with limits set, and the shadow mirror hand-off. Each
// is the median difference between two deployments of the same model
// answering the same record back to back, in alternating order, so
// drift and cache warmth cancel.
func (lr *layerRun) probeDeploy() error {
	var firstErr error
	pairedDeltaUs := func(base, other *deploy.Deployment) float64 {
		deltas := make([]float64, len(lr.recs))
		timed := func(d *deploy.Deployment, rec *record.Record) time.Duration {
			return timeIt(func() {
				if _, _, err := d.Predict(rec); err != nil && firstErr == nil {
					firstErr = err
				}
			})
		}
		for i, rec := range lr.recs {
			var a, b time.Duration
			if i%2 == 0 {
				a, b = timed(base, rec), timed(other, rec)
			} else {
				b, a = timed(other, rec), timed(base, rec)
			}
			deltas[i] = us(b - a)
		}
		return median(deltas)
	}
	plain := deploy.New("probe", lr.m, 1)
	defer plain.Close()
	// Limits far above what one sequential caller can reach: every
	// request pays the token-bucket and queue-depth checks, none is shed.
	limited := deploy.New("probe", lr.m, 1, deploy.WithLimits(deploy.Limits{QPS: 1e9, Burst: 1 << 30, QueueDepth: 1 << 20}))
	defer limited.Close()
	lr.out["deploy.admit_ns"] = pairedDeltaUs(plain, limited) * 1000

	shadowPath := lr.r.shadowPath
	if shadowPath == "" {
		shadowPath = lr.r.primaryPath // no shadow in this workload: mirror to a copy
	}
	shadow, err := model.LoadFile(shadowPath)
	if err != nil {
		return err
	}
	mirrored := deploy.New("probe", lr.m, 1)
	defer mirrored.Close()
	if err := mirrored.SetShadow(shadow, 2); err != nil {
		return err
	}
	lr.out["deploy.shadow_mirror_us"] = pairedDeltaUs(plain, mirrored)
	mirrored.FlushShadow()
	return firstErr
}

// probeModel times the model on its own: batched predict, allocations,
// artifact load, the cost of rebuilding the folded serve tables, and
// evaluation throughput; plus the two matmul kernels at the heavy
// model's gate shape.
func (lr *layerRun) probeModel() error {
	m := lr.m
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	const batch = 16
	nBatches := len(lr.recs) / batch
	lr.out["model.predict_b16_us_per_rec"] = p50us(nBatches, func(i int) {
		_, err := m.Predict(lr.recs[i*batch : (i+1)*batch])
		note(err)
	}) / batch

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rec := range lr.recs {
		_, err := m.PredictOne(rec)
		note(err)
	}
	runtime.ReadMemStats(&after)
	lr.out["model.allocs_per_predict"] = float64(after.Mallocs-before.Mallocs) / float64(len(lr.recs))

	loads := make([]float64, 5)
	for i := range loads {
		loads[i] = ms(timeIt(func() {
			_, err := model.LoadFile(lr.r.primaryPath)
			note(err)
		}))
	}
	lr.out["model.load_ms"] = median(loads)

	// ParamsChanged invalidates the folded tables; the next predict
	// rebuilds them, a warm predict does not.
	folds := make([]float64, 5)
	for i := range folds {
		m.ParamsChanged()
		cold := timeIt(func() { _, err := m.PredictOne(lr.recs[0]); note(err) })
		warm := timeIt(func() { _, err := m.PredictOne(lr.recs[0]); note(err) })
		folds[i] = ms(cold - warm)
	}
	lr.out["model.fold_ms"] = median(folds)
	lr.out["model.table_bytes"] = float64(m.FoldedTableBytes())

	evalTime := timeIt(func() { _, err := m.Evaluate(lr.ds.Records); note(err) })
	lr.out["model.eval_recs_per_s"] = float64(len(lr.ds.Records)) / evalTime.Seconds()

	// One GRU direction's input projection for a full-length query on
	// the heavy model: [MaxQueryLen x 64] x [64 x 3*64].
	const rows, inner, cols = 12, 64, 192
	a, b, dst := tensor.New(rows, inner), tensor.New(inner, cols), tensor.New(rows, cols)
	for i := range a.Data {
		a.Data[i] = float64(i%7) * 0.25
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) * 0.5
	}
	a32, b32, dst32 := tensor.FromF64(a), tensor.FromF64(b), tensor.New32(rows, cols)
	lr.out["tensor.matmul_f64_us"] = p50us(2000, func(int) { tensor.MatMul(dst, a, b) })
	lr.out["tensor.matmul_f32_us"] = p50us(2000, func(int) { tensor.MatMul32(dst32, a32, b32) })
	return firstErr
}

// probeTelemetry times the logger in isolation: the per-event cost on
// the serve path (Emit) and the flush barrier a query pays.
func (lr *layerRun) probeTelemetry() error {
	dir := filepath.Join(lr.r.dir, "probe-telemetry")
	l, err := telemetry.New(dir, telemetry.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	// Emit never blocks: past the queue depth it drops. Flush every
	// half queue so the probe times accepted events, not drops.
	const chunk = 512
	var emit time.Duration
	var flushes []float64
	for done := 0; done < telemetryEmits; done += chunk {
		emit += timeIt(func() {
			for i := 0; i < chunk; i++ {
				l.Emit(telemetry.Event{Stream: telemetry.StreamPredict, Dep: "probe",
					Tags:   []string{"nutrition"},
					Fields: map[string]any{"latency_ms": 0.25, "version": 1, "err": 0, "task.Intent": "Height"}})
			}
		})
		flushes = append(flushes, ms(timeIt(l.Flush)))
	}
	lr.out["telemetry.emit_ns"] = float64(emit.Nanoseconds()) / telemetryEmits
	lr.out["telemetry.flush_ms"] = median(flushes)
	return nil
}

// probeSliceql times the query engine on the events this run produced:
// statement parse, a full scan of a replica's telemetry directory, and
// a live-slice report over a full window.
func (lr *layerRun) probeSliceql() error {
	var parseErr error
	lr.out["sliceql.parse_us"] = p50us(500, func(int) { _, parseErr = sliceql.Parse(observeQuery) })
	if parseErr != nil {
		return parseErr
	}
	dir := lr.r.telDirs[0]
	// The child's own query handler flushes its logger first; do the
	// same so the scan sees every event.
	if err := postJSON(lr.r.replicas[0].url+"/v1/query", queryBody(), nil); err != nil {
		return err
	}
	var res *sliceql.Result
	var scanErr error
	scan := timeIt(func() { res, scanErr = sliceql.QueryDir(dir, observeQuery, time.Now()) })
	if scanErr != nil {
		return scanErr
	}
	if res.Scanned == 0 {
		return fmt.Errorf("sliceql probe: no events in %s", dir)
	}
	lr.out["sliceql.scan_events_per_s"] = float64(res.Scanned) / scan.Seconds()

	// A full live window of this run's predict events.
	files, err := telemetry.StreamFiles(dir, telemetry.StreamPredict)
	if err != nil {
		return err
	}
	var events []map[string]any
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return err
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var ev map[string]any
			if len(line) > 0 && json.Unmarshal(line, &ev) == nil {
				events = append(events, ev)
			}
		}
	}
	if len(events) == 0 {
		return fmt.Errorf("sliceql probe: no decodable events in %s", dir)
	}
	window := make([]map[string]any, sliceql.DefaultWindowEvents)
	for i := range window {
		window[i] = events[i%len(events)]
	}
	slice, err := sliceql.CompileSlice(sliceql.SliceDef{Name: "nutrition", Expr: "nutrition AND age<1h"})
	if err != nil {
		return err
	}
	now := time.Now()
	lr.out["sliceql.slice_report_us"] = p50us(20, func(int) { sliceql.ReportSlice(window, slice, now, nil) })
	return nil
}

// probeFleetstate times the durable store: single-record WAL appends
// (one fsync each), the bytes they leave, and recovering the directory.
func (lr *layerRun) probeFleetstate() error {
	dir := filepath.Join(lr.r.dir, "probe-state")
	store, err := fleetstate.Open(dir)
	if err != nil {
		return err
	}
	reg := deploy.NewRegistry()
	reg.SetPersister(store)
	if err := reg.Add(deploy.New("probe", lr.m, 1)); err != nil {
		return err
	}
	var appendErr error
	lr.out["fleetstate.append_us"] = p50us(storeAppends, func(i int) {
		if err := store.AppendIngest("probe", lr.recs[i:i+1]); err != nil && appendErr == nil {
			appendErr = err
		}
	})
	reg.Close()
	if err := store.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	st, err := os.Stat(filepath.Join(dir, "wal", "probe.wal"))
	if err != nil {
		return err
	}
	lr.out["fleetstate.wal_bytes"] = float64(st.Size())

	var fleet *fleetstate.Fleet
	recoverTime := timeIt(func() { fleet, err = fleetstate.Recover(dir) })
	if err != nil {
		return err
	}
	lr.out["fleetstate.recover_ms"] = ms(recoverTime)
	replayed := fleet.Replayed["probe"]
	fleet.Registry.Close()
	if err := fleet.Store.Close(); err != nil {
		return err
	}
	if replayed != storeAppends {
		return fmt.Errorf("fleetstate probe: recovered %d of %d ingest records", replayed, storeAppends)
	}
	return nil
}

// probeRecordLoad times parsing the run's data file.
func (lr *layerRun) probeRecordLoad() error {
	var err error
	load := timeIt(func() { lr.ds, err = record.Load(lr.r.dataPath, lr.sch) })
	if err != nil {
		return err
	}
	lr.out["record.load_recs_per_s"] = float64(len(lr.ds.Records)) / load.Seconds()
	return nil
}

// probeBuild times the build side in-process on the run's data file:
// supervision combine, compile, model construction, one training epoch,
// a two-trial one-epoch search, the monitoring report and the artifact
// save.
func (lr *layerRun) probeBuild() error {
	w, ds := lr.r.w, lr.ds
	var err error
	tcfg := train.Config{Seed: trainSeed}
	lr.out["labelmodel.combine_ms"] = ms(timeIt(func() { _, err = train.CombineSupervision(ds, tcfg) }))
	if err != nil {
		return err
	}

	// One epoch of the served model's own choice.
	choice := lr.m.Prog.Choice
	choice.Epochs = 1
	var prog *compile.Program
	lr.out["compile.plan_us"] = p50us(200, func(int) { prog, err = compile.Plan(lr.sch, choice, nil) })
	if err != nil {
		return err
	}
	resources := datasetResources(ds, prog)
	var fresh *model.Model
	lr.out["model.new_ms"] = ms(timeIt(func() { fresh, err = model.New(prog, resources, trainSeed) }))
	if err != nil {
		return err
	}
	epoch := timeIt(func() { _, err = train.Run(fresh, ds, tcfg) })
	if err != nil {
		return err
	}
	lr.out["train.epoch_ms"] = ms(epoch)
	lr.out["train.recs_per_s"] = float64(len(ds.WithTag(record.TagTrain))) / epoch.Seconds()

	// The workload's own tuning space, cut to one epoch per trial.
	tuning := schema.DefaultTuning()
	if w.Primary.Tuning != "" {
		data, err := os.ReadFile(filepath.Join(lr.e.root, "bench", "testdata", w.Primary.Tuning))
		if err != nil {
			return err
		}
		if tuning, err = schema.ParseTuning(data); err != nil {
			return err
		}
	}
	tuning.Epochs = []int{1}
	var sres *search.Result
	searchTime := timeIt(func() {
		sres, _, err = search.Run(ds, search.Config{Tuning: tuning, Budget: 2, Seed: trainSeed, Resources: resources, Train: tcfg})
	})
	if err != nil {
		return err
	}
	lr.out["search.run_s"] = searchTime.Seconds()
	lr.out["search.trials"] = float64(len(sres.Trials))

	app := &overton.App{Schema: lr.sch}
	lr.out["monitor.report_ms"] = ms(timeIt(func() {
		_, err = app.Report(lr.m, ds, overton.ReportOptions{Name: w.Name, EvalTag: record.TagDev})
	}))
	if err != nil {
		return err
	}
	saves := make([]float64, 5)
	for i := range saves {
		saves[i] = ms(timeIt(func() { _, err = lr.m.Bytes() }))
	}
	lr.out["model.save_ms"] = median(saves)
	return err
}

// datasetResources derives the vocabularies a fresh model needs from
// the data file, as the public Build does.
func datasetResources(ds *record.Dataset, prog *compile.Program) *compile.Resources {
	tokens, entities := map[string]bool{}, map[string]bool{}
	for _, r := range ds.Records {
		if pv, ok := r.Payloads[prog.TokenPayload]; ok && !pv.Null {
			for _, t := range pv.Tokens {
				tokens[t] = true
			}
		}
		for _, sp := range prog.SetPayloads {
			if pv, ok := r.Payloads[sp]; ok && !pv.Null {
				for _, mbr := range pv.Set {
					entities[mbr.ID] = true
				}
			}
		}
	}
	sorted := func(set map[string]bool) []string {
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	return &compile.Resources{TokenVocab: sorted(tokens), EntityVocab: sorted(entities)}
}
