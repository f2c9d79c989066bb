package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/sliceql"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// The observe phase and the ledgers: the monitoring half of the system.
// After the paced phase the run asks the question an operator would
// (per-deployment request count and latency percentiles, answered by
// sliceql over the telemetry streams) and streams labelled records into
// the ingest lane. When all traffic is done it reconciles what the client sent with what every process says
// it saw.

const (
	// observeQuery is the operator question the query phase repeats.
	observeQuery = "SELECT dep, COUNT(*), P50(latency_ms), P99(latency_ms) FROM predict GROUP BY dep"
	// queryCount and ingestCount size the observe phase: a median over
	// 30 queries, and p95 over 2000 ingest posts (100 samples beyond it).
	queryCount  = 30
	ingestCount = 2000
)

func queryBody() []byte { return []byte(`{"query":"` + observeQuery + `"}`) }

// queryPhase posts the observe query n times through front and returns
// each round trip in milliseconds.
func queryPhase(front string, n int) ([]float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var res sliceql.Result
		if err := postJSON(front+"/v1/query", queryBody(), &res); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
		if len(res.Rows) == 0 {
			return nil, fmt.Errorf("query %d returned no rows", i)
		}
	}
	return lat, nil
}

// ingestLines returns n ingest requests (one labelled JSONL line each)
// from the seed's corpus.
func ingestLines(seed int64, deployments []string, n int) ([]traffic.Request, error) {
	eng, err := traffic.NewEngine(traffic.Config{Workload: "mixed", Seed: seed, Deployments: deployments, Mix: 0.5})
	if err != nil {
		return nil, err
	}
	stream, err := eng.StreamN(1, 4*n)
	if err != nil {
		return nil, err
	}
	var out []traffic.Request
	for _, req := range stream {
		if req.Ingest && len(out) < n {
			out = append(out, req)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("ingest: stream yielded %d of %d lines", len(out), n)
	}
	return out, nil
}

// ingestPhase posts the lines through front, closed loop with one
// back-to-back client per connection, and returns each round trip in
// milliseconds. Every line must be accepted. (One client at a time
// would leave both ends idle between posts, and the wake-up noise of an
// idle box is larger than the ingest path itself.)
func ingestPhase(ctx context.Context, front string, lines []traffic.Request, conns int) ([]float64, error) {
	lat := make([]float64, len(lines))
	errs := make([]error, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(lines) || ctx.Err() != nil {
					return
				}
				req := lines[i]
				t0 := time.Now()
				var res struct {
					Accepted  int    `json:"accepted"`
					FirstFail string `json:"first_fail"`
				}
				err := postJSON(front+"/v1/models/"+req.Deployment+"/ingest", req.Body, &res)
				lat[i] = ms(time.Since(t0))
				if err == nil && res.Accepted != 1 {
					err = fmt.Errorf("ingest key %d rejected: %s", req.Key, res.FirstFail)
				}
				if err != nil {
					errs[worker] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lat, ctx.Err()
}

// clientLedger is what the generator knows it sent, by lane, with the
// requests that came back admitted.
type clientLedger struct {
	// predicts/ingests count admitted requests on each lane. sent
	// counts every request fired, direct those of them that went
	// straight to a replica instead of the front, failed those that
	// were shed, errored or late.
	predicts, ingests    int64
	sent, direct, failed int64
}

// serverLedger is what the processes report after the traffic.
type serverLedger struct {
	admitted, shed, ingested int64
	// predictEvents/dropped/written are the predict stream's telemetry
	// counters summed over replicas; queryCount is COUNT(*) summed over
	// replicas and deployments.
	predictEvents, dropped, written, queryCount int64
	// p50/p99 are the worst server-side latency percentiles reported by
	// any deployment.
	p50, p99 float64
	cluster  *cluster.ClusterStats
}

// readServerLedger collects every child's counters. The query it sends
// each replica also flushes that replica's telemetry, so written is
// final.
func readServerLedger(r *rig) (serverLedger, error) {
	var led serverLedger
	for _, rep := range r.replicas {
		for _, dep := range r.w.Deployments {
			var st deploy.Stats
			if err := getJSON(rep.url+"/v1/models/"+dep+"/stats", &st); err != nil {
				return led, err
			}
			if st.Load != nil {
				led.admitted += st.Load.Admitted
				led.shed += st.Load.Shed
			}
			led.ingested += st.Ingested
			led.p50, led.p99 = max(led.p50, st.P50Millis), max(led.p99, st.P99Millis)
		}
		var res sliceql.Result
		if err := postJSON(rep.url+"/v1/query", queryBody(), &res); err != nil {
			return led, err
		}
		for _, row := range res.Rows {
			// Columns are dep, COUNT(*), P50, P99; JSON numbers decode
			// as float64.
			n, ok := row[1].(float64)
			if !ok {
				return led, fmt.Errorf("query COUNT(*) is %T, want a number", row[1])
			}
			led.queryCount += int64(n)
		}
		var tel struct {
			Streams map[string]telemetry.StreamStats `json:"streams"`
		}
		if err := getJSON(rep.url+"/v1/telemetry", &tel); err != nil {
			return led, err
		}
		ps := tel.Streams[telemetry.StreamPredict]
		led.predictEvents += ps.Emitted
		led.dropped += ps.Dropped
		led.written += ps.Written
	}
	if r.router != nil {
		var cs cluster.ClusterStats
		if err := getJSON(r.router.url+"/v1/cluster/stats", &cs); err != nil {
			return led, err
		}
		led.cluster = &cs
	}
	return led, nil
}

// reconcile checks the accounting identities between the client and the
// processes. It is only meaningful when no request failed: a request
// that missed its deadline may or may not have been served.
func reconcile(c clientLedger, s serverLedger) error {
	var bad []string
	check := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: %d != %d", what, got, want))
		}
	}
	check("replicas admitted vs client predicts", s.admitted, c.predicts)
	check("replicas shed", s.shed, 0)
	check("replicas ingested vs client ingest lines", s.ingested, c.ingests)
	check("predict events + dropped vs admitted", s.predictEvents+s.dropped, s.admitted)
	check("query COUNT(*) vs predict events written", s.queryCount, s.written)
	check("predict events written vs emitted", s.written, s.predictEvents)
	if s.cluster != nil {
		check("router routed vs client sent", s.cluster.Routed, c.sent-c.direct)
		check("router shed", s.cluster.Shed, 0)
		var repReqs int64
		for _, rs := range s.cluster.Replicas {
			repReqs += rs.Requests
		}
		check("router per-replica requests vs routed", repReqs, s.cluster.Routed)
	}
	if len(bad) > 0 {
		return fmt.Errorf("ledgers do not reconcile: %s", strings.Join(bad, "; "))
	}
	return nil
}
