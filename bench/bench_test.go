package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/traffic"
)

// benchmarkJSON mirrors BENCHMARK.json at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestRegistryMatchesBenchmarkJSON pins the vocabulary: every workload
// and metric registered in code appears in BENCHMARK.json with the same
// unit, direction and bound, and vice versa, inside the contract's
// limits.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d (limit 2..8)", n, len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters (limit 200)", w.Name, len(w.Why))
		}
	}

	if n := len(bj.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code has %d (limit 1..16)", n, len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		checkName("end-to-end metric", m.Name)
		j := bj.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, code has %+v", i, j, m)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}

	if n := len(bj.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code has %d (limit 1..128)", n, len(perLayer))
	}
	for i, m := range perLayer {
		checkName("per-layer metric", m.Name)
		j := bj.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, code has %+v", i, j, m)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}

	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if len(bj.Command) == 0 || len(bj.Command) > 32 {
		t.Errorf("command has %d strings", len(bj.Command))
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes (limit 64 KiB)", len(data))
	}
}

// TestStreamsAreSeedDeterministic: the same seed gives byte-identical
// streams, a different seed a different one — for every workload.
func TestStreamsAreSeedDeterministic(t *testing.T) {
	flatten := func(stream []traffic.Request) []byte {
		var buf bytes.Buffer
		for _, r := range stream {
			buf.WriteString(r.Deployment)
			buf.WriteString(r.At.String())
			buf.Write(r.Body)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	for _, w := range workloads {
		a, err := workloadStream(w, 1, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := workloadStream(w, 1, 200*time.Millisecond)
		c, _ := workloadStream(w, 2, 200*time.Millisecond)
		if len(a) == 0 || !bytes.Equal(flatten(a), flatten(b)) {
			t.Errorf("%s: same seed gave different streams (%d requests)", w.Name, len(a))
		}
		if bytes.Equal(flatten(a), flatten(c)) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.Name)
		}
	}
	// serve_heavy_f32 exists to differ from serve_heavy only in the
	// precision plane: the two take the same bytes.
	h, _ := findWorkload("serve_heavy")
	f, _ := findWorkload("serve_heavy_f32")
	hs, _ := workloadStream(h, 3, 200*time.Millisecond)
	fs, _ := workloadStream(f, 3, 200*time.Millisecond)
	if !bytes.Equal(flatten(hs), flatten(fs)) {
		t.Error("serve_heavy and serve_heavy_f32 streams differ")
	}
}

// TestPacedTimingCountsAStallAgainstLaterRequests: open-loop timing
// from the due time. One request stalls the only connection for 50ms;
// every request due during the stall must show the part of it that it
// waited out, although its own round trip is instant.
func TestPacedTimingCountsAStallAgainstLaterRequests(t *testing.T) {
	const (
		n       = 40
		stallAt = 10
		stall   = 50 * time.Millisecond
		slop    = 5.0 // ms of scheduling tolerance
	)
	stream := make([]traffic.Request, n)
	for i := range stream {
		stream[i] = traffic.Request{Seq: i, At: time.Duration(i) * time.Millisecond}
	}
	tgt := traffic.TargetFunc(func(_ context.Context, req traffic.Request) traffic.Outcome {
		if req.Seq == stallAt {
			time.Sleep(stall)
		}
		return traffic.Outcome{Class: traffic.Admitted, Status: 200}
	})
	samples := runPaced(context.Background(), tgt, stream, 1, nil)
	for i, s := range samples {
		if !s.fired || s.class != traffic.Admitted {
			t.Fatalf("request %d not fired", i)
		}
		// Request i is due at i ms; the connection frees at ~60ms.
		wantMs := 0.0
		if i >= stallAt {
			wantMs = ms(time.Duration(stallAt)*time.Millisecond+stall) - float64(i)
		}
		got := s.latencyMs()
		if got < wantMs-slop {
			t.Errorf("request %d: latency %.2fms, want at least %.2fms (stall not counted from the due time)", i, got, wantMs-slop)
		}
		if i < stallAt && got > 20 {
			t.Errorf("request %d before the stall: latency %.2fms", i, got)
		}
		if roundTrip := ms(s.done - s.sent); i != stallAt && roundTrip > 20 {
			t.Errorf("request %d: round trip %.2fms, the stall should only show from the due time", i, roundTrip)
		}
	}
	st := summarisePaced(samples, 0)
	if st.ledger.sent != n || st.ledger.predicts != n || st.ledger.failed != 0 {
		t.Errorf("ledger = %+v", st.ledger)
	}
}

// TestSelfTimeArithmetic checks span self time on a hand-built tree:
// children clipped to the parent, overlap counted once, never negative.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "root", Parent: noParent, StartUs: 0, EndUs: 100},
		{ID: 1, Name: "a", Parent: 0, StartUs: 10, EndUs: 40},
		{ID: 2, Name: "b", Parent: 0, StartUs: 30, EndUs: 60},  // overlaps a by 10
		{ID: 3, Name: "c", Parent: 0, StartUs: 90, EndUs: 130}, // sticks out by 30
		{ID: 4, Name: "leaf", Parent: 1, StartUs: 15, EndUs: 20},
		{ID: 5, Name: "over", Parent: 2, StartUs: 20, EndUs: 80}, // covers all of b
		{ID: 6, Name: "other", Parent: noParent, StartUs: 0, EndUs: 7},
	}
	want := map[int]float64{
		0: 100 - (50 + 10), // a∪b = [10,60], c clipped to [90,100]
		1: 30 - 5,
		2: 0,
		3: 40,
		4: 5,
		5: 60,
		6: 7,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-9 {
			t.Errorf("span %d: self time %.3f, want %.3f", id, got[id], w)
		}
	}
	byName := selfP50ByName(spans)
	if byName["root"] != 40 || byName["b"] != 0 {
		t.Errorf("selfP50ByName = %v", byName)
	}
}

// TestCompareVerdicts covers the three verdicts and the quartile rule.
func TestCompareVerdicts(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{1, 2, 3}); got != 0 {
		t.Errorf("quartileSpread of 3 values = %g, want 0 (unknown)", got)
	}
	lower := metricDef{Name: "x_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_rps", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		m      metricDef
		change []float64
		base   []float64
		want   string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"slower within bound", lower, []float64{108}, steady, verdictWithin},
		{"slower past bound", lower, []float64{112}, steady, verdictRegressed},
		{"faster", lower, []float64{50}, steady, verdictWithin},
		{"throughput drop past bound", higher, []float64{88}, steady, verdictRegressed},
		{"throughput gain", higher, []float64{150}, steady, verdictWithin},
		{"noisy base", lower, []float64{100}, []float64{60, 80, 100, 120, 140}, verdictUnresolved},
		{"no data", lower, nil, steady, verdictMissing},
	} {
		if got := judge(tc.m, tc.base, tc.change).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	row := judge(higher, []float64{200}, []float64{150})
	if row.Ratio != 0.75 || math.Abs(row.Worse-0.25) > 1e-12 {
		t.Errorf("ratio %g worse %g, want 0.75 and 0.25 (base 200)", row.Ratio, row.Worse)
	}
}

// TestMedianAndPercentile pins the two summaries every metric uses.
func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 = %g, want 99 (ceil nearest-rank)", got)
	}
}
