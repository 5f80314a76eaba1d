package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// serve-overload shape: the 2x point of the elephant-vs-mice sweep.
// Capacity is workers*1000/costMS requests per second; the mice
// together offer half of it and the elephant the rest of 2x.
const (
	serveWorkers = 4
	serveCostMS  = 4
	serveMice    = 9
	serveQueue   = 64
	serveSat     = 2.0
)

// arrival is one generated request: when it is due and whose it is
// (tenant 0 is the elephant).
type arrival struct {
	due    time.Duration
	tenant int
}

// reqTimes is what one request recorded. Each entry is written only by
// the goroutine serving that request (and the generator before it
// starts it), and read after all of them have finished.
type reqTimes struct {
	sent, hStart, hEnd, done time.Time
	code                     int
}

// schedule draws every tenant's Poisson arrivals over dur and merges
// them in due order.
func schedule(seed uint64, dur time.Duration) []arrival {
	capacity := float64(serveWorkers) * 1000 / serveCostMS
	mice := capacity / 2
	rates := []float64{serveSat*capacity - mice}
	for i := 0; i < serveMice; i++ {
		rates = append(rates, mice/serveMice)
	}
	var out []arrival
	for t, rate := range rates {
		r := rand.New(rand.NewPCG(seed, uint64(0x5e7e+t)))
		for at := r.ExpFloat64() / rate; at < dur.Seconds(); at += r.ExpFloat64() / rate {
			out = append(out, arrival{due: time.Duration(at * float64(time.Second)), tenant: t})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

func tenantName(t int) string {
	if t == 0 {
		return "elephant"
	}
	return fmt.Sprintf("mouse-%d", t-1)
}

type reqKey struct{}

// runServe is serve-overload: an open-loop generator of its own
// replays the seed's schedule into Server.ServeHTTP in process (no
// sockets), timing every request from when it was due.
func runServe(e env) (*outcome, error) {
	dur := time.Duration(e.seconds * float64(time.Second))
	o := newOutcome()
	arr := schedule(e.seed, dur)
	times := make([]reqTimes, len(arr))

	var handler http.Handler = serve.WorkHandler()
	if e.tr != nil {
		work := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rt := &times[r.Context().Value(reqKey{}).(int)]
			rt.hStart = time.Now()
			work.ServeHTTP(w, r)
			rt.hEnd = time.Now()
		})
	}
	cfg := serve.Config{Handler: handler, Workers: serveWorkers, QueueCap: serveQueue}
	srv, setup, err := timeReps(201, func() (*serve.Server, error) {
		c := cfg
		c.Registry = obs.NewRegistry()
		return serve.New(c)
	}, (*serve.Server).Close)
	if err != nil {
		return nil, err
	}
	o.host["setup_s"] = setup

	e.heap.settle()
	target := fmt.Sprintf("/work?ms=%d", serveCostMS)
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		times[i].sent = time.Now()
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			r := httptest.NewRequest("GET", target, nil)
			r.Header.Set("X-Tenant", tenant)
			r = r.WithContext(context.WithValue(r.Context(), reqKey{}, i))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			times[i].done = time.Now()
			times[i].code = w.Code
		}(i, tenantName(a.tenant))
	}
	wg.Wait()
	end := time.Now()
	e.heap.settle()
	if err := srv.Drain(10 * time.Second); err != nil {
		o.fail("drain: %v", err)
	}
	srv.Close()
	if n, msgs := srv.VerifyAccounting(); n != 0 {
		o.fail("%d accounting violations: %v", n, msgs)
	}

	var miceLat, pre, post, lag []float64
	var ok, elephant, elephantShed int64
	var busy time.Duration
	for i, a := range arr {
		t := &times[i]
		lag = append(lag, t.sent.Sub(start.Add(a.due)).Seconds())
		if t.code == http.StatusOK {
			ok++
		}
		if a.tenant == 0 {
			elephant++
			if t.code != http.StatusOK {
				elephantShed++
			}
		} else {
			o.attempted++
			if t.code != http.StatusOK {
				o.failed++
				continue
			}
			miceLat = append(miceLat, t.done.Sub(start.Add(a.due)).Seconds())
		}
		if e.tr != nil && !t.hStart.IsZero() {
			busy += t.hEnd.Sub(t.hStart)
			if a.tenant != 0 {
				pre = append(pre, t.hStart.Sub(start.Add(a.due)).Seconds())
				post = append(post, t.done.Sub(t.hEnd).Seconds())
			}
			id := e.tr.add("serve.ServeHTTP "+tenantName(a.tenant), 0, start.Add(a.due), t.done)
			e.tr.add("handler", id, t.hStart, t.hEnd)
		}
	}
	if o.failed > 0 {
		o.fail("%d of %d mouse requests were not answered 200", o.failed, o.attempted)
	}
	// Elephant requests are expected to be shed; they count as
	// attempted operations but not as failures.
	o.attempted += elephant
	o.sim["serve.offered"] = float64(len(arr))
	o.sim["serve.offered_elephant"] = float64(elephant)

	o.host["packets_per_s"] = float64(ok) / end.Sub(start).Seconds()
	o.host["goodput_rps"] = o.host["packets_per_s"]
	o.host["latency_p50_ms"] = quantile(miceLat, 0.5) * 1e3
	o.host["mice_p50_ms"] = o.host["latency_p50_ms"]
	o.host["mice_p99_ms"] = quantile(miceLat, 0.99) * 1e3
	o.host["mice_samples"] = float64(len(miceLat))
	o.host["serve.elephant_shed_frac"] = float64(elephantShed) / float64(elephant)
	o.host["serve.gen_lag_ms_p99"] = quantile(lag, 0.99) * 1e3
	o.throughput = o.host["packets_per_s"]
	var waitP99 int64
	for _, ts := range srv.Stats() {
		if ts.Tenant != "elephant" {
			waitP99 = max(waitP99, ts.WaitP99MS)
		}
	}
	o.host["serve.wait_p99_ms"] = float64(waitP99)
	if e.tr != nil {
		o.layer["serve.pre_handler_ms_p99"] = quantile(pre, 0.99) * 1e3
		o.layer["serve.post_handler_us_p99"] = quantile(post, 0.99) * 1e6
		o.layer["serve.handler_busy_frac"] = busy.Seconds() / (serveWorkers * end.Sub(start).Seconds())
	}
	return o, nil
}
