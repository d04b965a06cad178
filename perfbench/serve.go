package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/webserver"
)

const (
	serverPort = 8080
	// clients is the closed-loop client count: one goroutine (and, on the
	// keep-alive server, one connection) each. The host has 2 CPUs.
	clients = 2
	// warmupBlocks is each client's untimed warm-up, run during set-up so
	// pools, lazy rings and recv buffers are filled before timing.
	warmupBlocks = 8
	// requestTimeout bounds one request; a request still in flight after
	// it is a wedge and fails the run.
	requestTimeout = 5 * time.Second
	// listenTimeout bounds how long a fresh server may take to listen.
	listenTimeout = 10 * time.Second
)

var (
	pageRequest  = []byte("GET / HTTP/1.1")
	countRequest = []byte("GET /count")
	errNoReply   = errors.New("connection closed before the reply")
)

// pageReply is the exact reply every page request must get, built from the
// server's configuration rather than taken from the server.
func pageReply(cfg webserver.Config) []byte {
	return append([]byte("HTTP/1.1 200 OK\r\n\r\n"), bytes.Repeat([]byte("x"), cfg.PageSize)...)
}

// replyCheck validates replies: page replies byte for byte, /count replies
// as a counter that rises on every client and advances countStep per
// request the server handled.
type replyCheck struct {
	page []byte
	// countStep is how far the server's counter advances per request
	// (the thread-pool server bumps it 9 times per request).
	countStep uint64
}

// request returns the bytes of a page or /count request.
func request(count bool) []byte {
	if count {
		return countRequest
	}
	return pageRequest
}

// readReply reads one reply from a connection into buf: until the full
// page arrived, or one read for a /count reply (written by one writev).
func readReply(cc kernel.ClientConn, buf []byte, pageLen int, count bool) ([]byte, error) {
	got := 0
	for {
		n, err := cc.Read(buf[got:])
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, errNoReply
		}
		got += n
		if count || got >= pageLen || got == len(buf) {
			return buf[:got], nil
		}
	}
}

// checkClosingCount sends a final /count after every other request has
// completed and checks that it equals countStep × the requests sent to the
// server, this one included.
func checkClosingCount(r *result, send sender, chk replyCheck, sent int) {
	r.Attempted++
	reply, err := send(0, true)
	if err != nil {
		r.Failed++
		fmt.Printf("closing /count failed: %v\n", err)
		return
	}
	n, ok := parseCount(reply)
	want := chk.countStep * uint64(sent+1)
	r.check(ok && n == want, "closing /count reply %q, want count=%d (%d requests sent)", reply, want, sent+1)
}

// parseCount reads a "count=N" reply.
func parseCount(b []byte) (uint64, bool) {
	rest, ok := bytes.CutPrefix(b, []byte("count="))
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(string(rest), 10, 64)
	return n, err == nil
}

// sender performs one request for client c — GET /count when count is
// set, the page otherwise — and returns the reply, which may alias a
// buffer the sender reuses.
type sender func(c int, count bool) ([]byte, error)

// clientStats is what one client measured.
type clientStats struct {
	lat       hist // per request, as the client sees it
	block     hist // per block of blockLen requests
	latSumNs  int64
	attempted int
	completed int
	lastCount uint64
	failure   string // the request that failed, if one did
	bad       []string
}

// load runs every client in closed loop: each sends whole blocks of
// blockLen requests (one /count at a seeded position, pages otherwise),
// the next request only after the previous reply, until the deadline or
// until blocks blocks are done (blocks > 0). A failed request stops every
// client.
func load(st []clientStats, send sender, chk replyCheck, seed int64, blocks int, end time.Time, wd *watchdog) {
	for i := range st {
		// Reused across segments: clearing allocates nothing. The last
		// /count carries over, so the count must rise across segments too.
		st[i] = clientStats{lastCount: st[i].lastCount}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &st[c]
			pos := newCountPositions(seed, c)
			for b := 0; (blocks > 0 && b < blocks) || (blocks == 0 && time.Now().Before(end)); b++ {
				at := pos.next()
				b0 := time.Now()
				for j := 0; j < blockLen; j++ {
					if stop.Load() {
						return
					}
					count := j == at
					s.attempted++
					t0 := time.Now()
					if wd != nil {
						wd.busy(c, t0)
					}
					reply, err := send(c, count)
					d := time.Since(t0)
					if wd != nil {
						wd.idle(c)
					}
					if err != nil {
						s.failure = fmt.Sprintf("client %d request %d: %v", c, s.attempted, err)
						stop.Store(true)
						return
					}
					s.completed++
					s.lat.add(int64(d))
					s.latSumNs += int64(d)
					s.verify(chk, count, reply)
				}
				s.block.add(int64(time.Since(b0)))
			}
		}()
	}
	wg.Wait()
}

// verify checks one reply.
func (s *clientStats) verify(chk replyCheck, count bool, reply []byte) {
	if len(s.bad) >= 5 {
		return // enough to diagnose; the run is already incorrect
	}
	if !count {
		if !bytes.Equal(reply, chk.page) {
			s.bad = append(s.bad, fmt.Sprintf("page reply of %d bytes differs from the %d-byte page", len(reply), len(chk.page)))
		}
		return
	}
	n, ok := parseCount(reply)
	if !ok || n <= s.lastCount {
		s.bad = append(s.bad, fmt.Sprintf("/count reply %q after count=%d on this client", reply, s.lastCount))
		return
	}
	s.lastCount = n
}

// warm sends blocks untimed blocks per client and returns the requests
// sent and whether every one completed.
func warm(r *result, st []clientStats, send sender, chk replyCheck, seed int64, blocks int, wd *watchdog) (int, bool) {
	load(st, send, chk, seed, blocks, time.Time{}, wd)
	sent := 0
	for i := range st {
		sent += st[i].attempted
	}
	return sent, tally(r, st)
}

// tally folds the clients' counts and checks into r and reports whether
// every request completed.
func tally(r *result, st []clientStats) bool {
	ok := true
	for i := range st {
		r.Attempted += st[i].attempted
		if st[i].failure != "" {
			r.Failed++
			fmt.Printf("request failed: %s\n", st[i].failure)
			ok = false
		}
		for _, b := range st[i].bad {
			r.check(false, "client %d: %s", i, b)
		}
	}
	return ok
}

// watchdog fails a request that has been in flight longer than
// requestTimeout: it calls fire once, which must unblock the client (kill
// the session, which interrupts its pipes). Clients publish the start of
// their current request, so the per-request cost is two atomic stores.
type watchdog struct {
	started [clients]atomic.Int64
	stop    chan struct{}
	done    chan struct{}
}

func startWatchdog(fire func()) *watchdog {
	w := &watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case now := <-tick.C:
				for c := range w.started {
					if t := w.started[c].Load(); t != 0 && now.UnixNano()-t > int64(requestTimeout) {
						fire()
						return
					}
				}
			}
		}
	}()
	return w
}

func (w *watchdog) busy(c int, t time.Time) { w.started[c].Store(t.UnixNano()) }
func (w *watchdog) idle(c int)              { w.started[c].Store(0) }

// close stops the watchdog and waits for it to exit.
func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

// serverSession is one guest server session the benchmark talks to
// directly through the session kernel.
type serverSession struct {
	sess    *core.Session
	newTime time.Duration
	done    chan struct{}
	res     *core.Result
}

// startServer builds and starts a server session and waits until its
// listener accepts a connection.
func startServer(opts core.Options, cfg webserver.Config) (*serverSession, error) {
	t0 := time.Now()
	s := core.NewSession(opts, webserver.Program(cfg))
	ss := &serverSession{sess: s, newTime: time.Since(t0), done: make(chan struct{})}
	s.Start()
	go func() {
		ss.res = s.Wait()
		close(ss.done)
	}()
	deadline := time.Now().Add(listenTimeout)
	for {
		if cc, errno := s.Kernel().Connect(cfg.Port); errno == kernel.OK {
			cc.Close()
			return ss, nil
		}
		if s.Monitor().Killed() || time.Now().After(deadline) {
			ss.stop(cfg.Port)
			return nil, fmt.Errorf("server never listened on port %d", cfg.Port)
		}
		// Yield rather than sleep: the listener is up within a few hundred
		// µs, and a timer's granularity would blur the set-up time this
		// wait is part of.
		runtime.Gosched()
	}
}

// stop closes the listener, waits for the server to drain (killing it if
// it does not) and returns its result.
func (ss *serverSession) stop(port uint16) *core.Result {
	ss.sess.Kernel().CloseListener(port)
	select {
	case <-ss.done:
	case <-time.After(programTimeout):
		ss.sess.Kill()
		<-ss.done
	}
	return ss.res
}

// checkSession records the MVEE properties every server session must keep.
func checkSession(r *result, res *core.Result) {
	r.check(res.Divergence == nil, "server diverged: %v", res.Divergence)
	r.check(res.Deadlock == nil, "server deadlocked: %v", res.Deadlock)
	r.check(res.Panic == nil, "server panicked: %v", res.Panic)
}

// serverSamples is what one timed phase of a server workload measured:
// the whole phase, and each segment of it apart.
type serverSamples struct {
	lat      hist
	block    hist
	latSumNs int64
	requests int
	cpu      time.Duration
	elapsed  time.Duration
	ok       bool
	// Per-segment figures. The end-to-end metrics are their medians, so a
	// burst of interference from other tenants of the host moves one
	// segment, not the result.
	segP50, segP90, segCPU, segBlock []float64
}

// segment is the length of one timed segment. Interference from other
// tenants of the host comes in bursts shorter than a second; at 100 ms
// most segments miss them, so the median over segments does too.
const segment = 100 * time.Millisecond

// timed runs the closed-loop load for dur, in whole segments, and gathers
// the samples.
func timed(r *result, st []clientStats, send sender, chk replyCheck, seed int64, dur time.Duration, wd *watchdog) serverSamples {
	var s serverSamples
	t0 := time.Now()
	for seg := 0; seg == 0 || time.Since(t0) < dur; seg++ {
		cpu0, s0 := cpuTime(), time.Now()
		load(st, send, chk, seed*31+int64(seg), 0, s0.Add(min(segment, dur)), wd)
		cpu := cpuTime() - cpu0
		s.cpu += cpu
		var g serverSamples
		g.ok = tally(r, st)
		for i := range st {
			g.lat.merge(&st[i].lat)
			g.block.merge(&st[i].block)
			g.latSumNs += st[i].latSumNs
			g.requests += st[i].completed
		}
		s.lat.merge(&g.lat)
		s.block.merge(&g.block)
		s.latSumNs += g.latSumNs
		s.requests += g.requests
		s.segP50 = append(s.segP50, g.lat.quantile(0.5)/1e3)
		s.segP90 = append(s.segP90, g.lat.quantile(0.9)/1e3)
		s.segCPU = append(s.segCPU, float64(cpu)/1e3/float64(max(1, g.requests)))
		s.segBlock = append(s.segBlock, g.block.quantile(0.5)/1e6)
		if !g.ok {
			return s
		}
	}
	s.elapsed = time.Since(t0)
	s.ok = true
	return s
}

// latUs is the p-quantile of the request latency in microseconds.
func (s *serverSamples) latUs(p float64) float64 { return s.lat.quantile(p) / 1e3 }

func (s *serverSamples) meanLatUs() float64 {
	return ratio(float64(s.latSumNs)/1e3, float64(s.requests))
}

func (s *serverSamples) cpuPerReq() float64 {
	return float64(s.cpu) / 1e3 / float64(max(1, s.requests))
}

// setEndToEnd reports a server phase's end-to-end figures and prints the
// reference figures (throughput, p90, p99) that are not bounded metrics.
func (s *serverSamples) setEndToEnd(r *result) {
	fmt.Printf("segments: n=%d, q1/median/q3 over segments: p50_us %s p90_us %s cpu_us_per_req %s\n",
		len(s.segP50), quartiles(s.segP50), quartiles(s.segP90), quartiles(s.segCPU))
	r.set("latency_us_p50", median(s.segP50), "us")
	r.set("program_ms", median(s.segBlock), "ms")
	r.set("cpu_us_per_req", median(s.segCPU), "us")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Printf("reference: requests=%d req/s=%.0f p90_us=%.2f (segment median %.2f) p99_us=%.2f\n", s.requests,
		float64(s.requests)/s.elapsed.Seconds(), s.latUs(0.9), median(s.segP90), s.latUs(0.99))
}

// quartiles renders the quartiles of xs (sorting it in place).
func quartiles(xs []float64) string {
	return fmt.Sprintf("%.2f/%.2f/%.2f", quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
}
