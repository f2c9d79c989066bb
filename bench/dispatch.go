package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/sliceql"
	"repro/internal/traffic"
)

// The benchmark's own dispatcher. traffic.DriveStream is closed-loop
// paced (a busy pool blocks the pacer) and times from send, which hides
// the wait a stall imposes on the requests behind it. Here the paced
// phase is open loop: every request has a due time from the stream's
// schedule, fires at it if a connection is free and as soon as one
// frees otherwise, and is timed from the due time either way.

// requestDeadline bounds one request; a miss counts as failed.
const requestDeadline = 5 * time.Second

// sample is one fired request's timeline, as offsets from the phase
// start.
type sample struct {
	fired bool
	// due is the stream's schedule offset; sent is when the request went
	// on the wire; done is when the response had been drained.
	due, sent, done time.Duration
	// idle marks a request whose connection was free before the due
	// time, so sent-due is generator timer lateness, not queueing.
	idle   bool
	ingest bool
	class  traffic.Class
}

// latencyMs is the user-visible latency: completion minus due time.
func (s sample) latencyMs() float64 { return ms(s.done - s.due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// preciseSleep blocks the calling thread in nanosleep(2) with the
// thread's timer slack cut to 1ns. time.Sleep parks on the netpoller,
// whose timeout has millisecond granularity when the process is
// otherwise idle: it overshoots by ~0.6ms here, more than a whole light
// round trip, where this overshoots by ~30us.
func preciseSleep(d time.Duration) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: default slack is 50us
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early EINTR wake only sends the request early
}

// newTarget returns an HTTP target over base that holds at most conns
// keep-alive connections, so conns dispatcher workers each effectively
// own one.
func newTarget(base string, conns int) *traffic.HTTPTarget {
	return &traffic.HTTPTarget{
		Base: base,
		Client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
	}
}

// runPaced fires stream open loop over conns connections and returns
// one sample per request, indexed like stream. Workers claim requests in
// stream order; a worker that claims one early sleeps until it is due,
// one that claims it late (every connection was busy) sends at once.
// tr, when non-nil, records the driver spans of every request.
func runPaced(ctx context.Context, tgt traffic.Target, stream []traffic.Request, conns int, tr *tracer) []sample {
	samples := make([]sample, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) || ctx.Err() != nil {
					return
				}
				req := stream[i]
				s := &samples[i]
				s.due, s.ingest = req.At, req.Ingest
				if wait := req.At - time.Since(start); wait > 0 {
					s.idle = true
					preciseSleep(wait)
				}
				s.sent = time.Since(start)
				rctx, cancel := context.WithTimeout(ctx, requestDeadline)
				out := tgt.Do(rctx, req)
				cancel()
				s.done = time.Since(start)
				s.class, s.fired = out.Class, true
				if tr != nil {
					root := tr.add(worker, "driver.request", i, noParent, s.due, s.done)
					tr.add(worker, "driver.wait", i, root, s.due, s.sent)
					tr.add(worker, "client.roundtrip", i, root, s.sent, s.done)
				}
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// saturation is the closed-loop phase's outcome.
type saturation struct {
	ledger clientLedger
	// windowRPS is the successful-operation rate in each full
	// saturationWindow of the phase.
	windowRPS []float64
}

const saturationWindow = 500 * time.Millisecond

// runSaturated drives one back-to-back client per connection for dur,
// cycling through stream (each worker from its own offset).
func runSaturated(ctx context.Context, tgt traffic.Target, stream []traffic.Request, conns int, dur time.Duration) saturation {
	nWin := int(dur / saturationWindow)
	type tally struct {
		ledger clientLedger
		win    []int
	}
	tallies := make([]tally, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			t := &tallies[worker]
			t.win = make([]int, nWin)
			for i := worker * len(stream) / conns; ctx.Err() == nil; i++ {
				if time.Since(start) >= dur {
					return
				}
				req := stream[i%len(stream)]
				rctx, cancel := context.WithTimeout(ctx, requestDeadline)
				out := tgt.Do(rctx, req)
				cancel()
				t.ledger.sent++
				switch {
				case out.Class != traffic.Admitted:
					t.ledger.failed++
					continue
				case req.Ingest:
					t.ledger.ingests++
				default:
					t.ledger.predicts++
				}
				if w := int(time.Since(start) / saturationWindow); w < nWin {
					t.win[w]++
				}
			}
		}(c)
	}
	wg.Wait()
	var sat saturation
	win := make([]int, nWin)
	for _, t := range tallies {
		sat.ledger.add(t.ledger)
		for w, n := range t.win {
			win[w] += n
		}
	}
	for _, n := range win {
		sat.windowRPS = append(sat.windowRPS, float64(n)/saturationWindow.Seconds())
	}
	return sat
}

// percentile is the fleet's ceil nearest-rank percentile (the one
// sliceql owns) over an unsorted sample; 0 when empty.
func percentile(values []float64, p float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return sliceql.Percentile(sorted, p)
}

// quietestChunkPercentile splits values (in arrival order) into up to
// five equal chunks of at least 1000, takes p in each, and returns the
// smallest. Interference on a shared box only ever adds latency, and it
// comes in bursts that put a whole-phase tail percentile anywhere
// between 1x and 3x from one run to the next; the quietest chunk is the
// estimate of the undisturbed system that repeats. 1000 samples keep 50
// beyond p95 in every chunk; smaller chunks made the minimum a lucky
// draw on the workload whose p95 sits on a knee (observed_mixed).
func quietestChunkPercentile(values []float64, p float64) float64 {
	chunks := min(max(len(values)/1000, 1), 5)
	best := 0.0
	for c := 0; c < chunks; c++ {
		v := percentile(values[c*len(values)/chunks:(c+1)*len(values)/chunks], p)
		if c == 0 || v < best {
			best = v
		}
	}
	return best
}

// median is the middle value, or the mean of the two middle values.
func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
