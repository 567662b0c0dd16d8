package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// requests per second, drawn from rng: the open loop's seeded arrival
// schedule. Offsets start after one inter-arrival gap.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		out[i] = time.Duration(t)
	}
	return out
}

// result is what one request returned.
type result struct {
	status int
	body   []byte
	timing string // Server-Timing header, when the server sent one
	err    error
}

// sample is one request of an open-loop phase. Times are offsets from the
// phase start. Latency is measured from due, the time the schedule said
// the request should be sent, so a stall also charges the wait it imposes
// on the requests queued behind it.
type sample struct {
	result
	due      time.Duration
	released time.Duration // when the dispatcher handed it to a connection
	sent     time.Duration // when a connection started sending it
	done     time.Duration
	backlog  int // requests released but not yet sent, at release
}

func (s *sample) latency() time.Duration { return s.done - s.due }

// openLoop sends request i at offset due[i] from start, through at
// most conns concurrent senders (one keep-alive connection each). The
// dispatcher never waits for replies: when every sender is busy, released
// requests queue and their latency grows. It returns once every request
// has completed.
func openLoop(start time.Time, due []time.Duration, conns int, send func(i int) result) []sample {
	samples := make([]sample, len(due))
	// Sized to the number of sends, so the dispatcher never blocks.
	queue := make(chan int, len(due))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				samples[i].sent = time.Since(start)
				samples[i].result = send(i)
				samples[i].done = time.Since(start)
			}
		}()
	}
	for i, d := range due {
		for wait := d - time.Since(start); wait > 0; wait = d - time.Since(start) {
			preciseSleep(wait)
		}
		samples[i].due = d
		samples[i].backlog = len(queue)
		samples[i].released = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// generatorReport says how well the generator kept to its schedule.
type generatorReport struct {
	latenessP99 time.Duration // dispatcher release - due, nearest-rank p99
	backlogGrow float64       // mean backlog of the last quarter - first quarter
}

// maxLatenessP99 bounds how late the generator itself may run; beyond it
// a phase did not offer its load on schedule and is invalid.
const maxLatenessP99 = 10 * time.Millisecond

func reportGenerator(samples []sample) generatorReport {
	late := make([]time.Duration, len(samples))
	for i := range samples {
		late[i] = samples[i].released - samples[i].due
	}
	p99, _ := nearestRank(late, 0.99)
	q := len(samples) / 4
	mean := func(ss []sample) float64 {
		var t float64
		for _, s := range ss {
			t += float64(s.backlog)
		}
		return ratio(t, float64(len(ss)))
	}
	var grow float64
	if q > 0 {
		grow = mean(samples[len(samples)-q:]) - mean(samples[:q])
	}
	return generatorReport{latenessP99: p99, backlogGrow: grow}
}

// valid reports whether the generator kept to its schedule: its own
// lateness stayed bounded. A growing backlog is the system's fault and
// is judged by the capacity search.
func (g generatorReport) valid() bool { return g.latenessP99 <= maxLatenessP99 }

// backlogGrows reports whether queued requests piled up over a phase of n
// requests: the mean backlog of its last quarter exceeds that of its first
// by more than one request per connection and backlogShare of the phase.
// An overload grows the backlog by the excess rate times the phase length,
// which this difference sees as 0.75 x excess/rate of the phase: 5 % flags
// an offered rate about 7 % above what the process sustains. A burst of
// host noise only queues the requests that arrive during it: at 5 % a
// stall must last a twentieth of the phase (50 ms in a 1 s probe) to fail
// it, five Go scheduler time slices.
func (g generatorReport) backlogGrows(conns, n int) bool {
	return g.backlogGrow > max(float64(conns), backlogShare*float64(n))
}

// backlogShare is the backlog growth, as a share of a phase's requests,
// beyond which the phase counts as overloaded.
const backlogShare = 0.05

// httpRequest is one planned request, fully encoded before the phase.
type httpRequest struct {
	method string
	path   string
	body   []byte
	client string // X-Client-ID: the simulated user
}

// seqHeader carries the request sequence number, the trace ID that links
// the server-side handler span to the client-side request span.
const seqHeader = "X-Bench-Seq"

// httpSender sends planned requests over a keep-alive transport capped at
// conns connections.
type httpSender struct {
	base   string
	client *http.Client
	traced bool // force a server-side trace (X-Server-Timing: 1)
}

func newHTTPSender(base string, conns int, traced bool) *httpSender {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &httpSender{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, traced: traced}
}

func (s *httpSender) close() { s.client.CloseIdleConnections() }

func (s *httpSender) send(seq int, r *httpRequest) result {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, s.base+r.path, body)
	if err != nil {
		return result{err: err}
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Client-ID", r.client)
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	if s.traced {
		req.Header.Set("X-Server-Timing", "1")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return result{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return result{status: resp.StatusCode, body: data, timing: resp.Header.Get("Server-Timing"), err: err}
}
