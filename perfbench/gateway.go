package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/futex"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/webserver"
)

// gatewayServer is the thread-pool §5.5 server behind the gateway. Every
// request bumps the nginx-style spinlock counter 9 times.
var gatewayServer = webserver.Config{Port: serverPort, PoolThreads: 2, InstrumentCustomSync: true, PageSize: 4096}

// gatewayCheck: the thread-pool server serves one request per connection
// and bumps its counter 9 times per request.
var gatewayCheck = replyCheck{page: pageReply(gatewayServer), countStep: 9}

// gateway is a 1-member fleet (telemetry on, as fleets always run it).
type gateway struct {
	f      *fleet.Fleet
	st     []clientStats // the submitters' state, kept across phases
	sent   int
	broken bool // a request failed
}

func startGateway(opts core.Options) (*gateway, time.Duration, error) {
	fc := webserver.FleetConfig(gatewayServer, opts, 1)
	fc.RequestTimeout = requestTimeout
	fc.SpawnTimeout = listenTimeout
	t0 := time.Now()
	f, err := fleet.New(fc)
	return &gateway{f: f, st: make([]clientStats, clients)}, time.Since(t0), err
}

// send submits one request through the gateway, which opens a fresh
// connection to the member for it. The fleet's RequestTimeout is the
// request's deadline.
func (g *gateway) send(_ int, count bool) ([]byte, error) {
	return g.f.Do(request(count))
}

// warmUp sends the untimed warm-up.
func (g *gateway) warmUp(r *result, seed int64) bool {
	n, ok := warm(r, g.st, g.send, gatewayCheck, seed, warmupBlocks, nil)
	g.sent += n
	g.broken = g.broken || !ok
	return ok
}

func (g *gateway) run(r *result, seed int64, dur time.Duration) serverSamples {
	s := timed(r, g.st, g.send, gatewayCheck, seed, dur, nil)
	g.sent += s.requests
	g.broken = g.broken || !s.ok
	return s
}

// finish sends the closing /count (unless a request failed), drains the
// fleet and checks that no member diverged, deadlocked or crashed and no
// request failed.
func (g *gateway) finish(r *result) {
	if !g.broken {
		checkClosingCount(r, g.send, gatewayCheck, g.sent)
		g.sent++
	}
	g.f.Close()
	st := g.f.Stats()
	r.check(st.Divergences == 0 && st.Deadlocks == 0 && st.Crashes == 0,
		"fleet quarantined members: divergences=%d deadlocks=%d crashes=%d", st.Divergences, st.Deadlocks, st.Crashes)
	r.check(g.broken || st.Errors == 0, "gateway reported %d failed requests", st.Errors)
}

// setUpGateway builds and warms a fleet setupReps times (the earlier ones
// are drained untimed) and returns the last one with the median set-up
// time and the median fleet.New time.
func setUpGateway(r *result, opts func(rep int) core.Options, seed int64) (*gateway, float64, float64, bool) {
	var setups, news []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		g, newTime, err := startGateway(opts(i))
		if err != nil {
			r.Attempted++
			r.Failed++
			fmt.Printf("set-up failed: %v\n", err)
			return nil, 0, 0, false
		}
		if !g.warmUp(r, seed) {
			g.finish(r)
			return nil, 0, 0, false
		}
		setups = append(setups, time.Since(t0).Seconds())
		news = append(news, float64(newTime)/1e6)
		if i == setupReps-1 {
			fmt.Printf("setups_s=%.4f new_ms=%.2f\n", setups, news)
			return g, median(setups), median(news), true
		}
		g.finish(r)
	}
	panic("unreachable")
}

func runGateway(cfg config) *result {
	r := newResult()
	g, setup, _, ok := setUpGateway(r, func(i int) core.Options { return mveeOptions(runSeed(cfg.seed, i)) }, cfg.seed)
	if !ok {
		return r
	}
	s := g.run(r, cfg.seed, cfg.seconds)
	g.finish(r)
	s.setEndToEnd(r)
	r.set("setup_s", setup, "s")
	return r
}

// traceGateway is the traced run. Phases of a quarter of the timed
// length each: untraced and traced load on one fleet (the traced phase
// reads the gateway's service-time histogram, the member's records and
// the merged telemetry matrix around the load), the member's server
// driven directly without the gateway (connect, send and reply wait
// timed per request; agent and ring/futex counts from its result), and
// the load through a native fleet.
func traceGateway(cfg config) *result {
	r := newResult()
	setLayerDefaults(r)
	part := cfg.seconds / 4
	mvee := func(i int) core.Options { return mveeOptions(runSeed(cfg.seed, i)) }
	memberOpts := mvee(0)
	memberOpts.Telemetry = true // what fleet.New sets for its members
	setLayer(r, "core.new_session_ms", newSessionMs(memberOpts, webserver.Program(gatewayServer)))

	g, _, newMs, ok := setUpGateway(r, mvee, cfg.seed)
	if !ok {
		return r
	}
	setLayer(r, "fleet.new_ms", newMs)
	u := g.run(r, cfg.seed, part)
	st0, snap0 := g.f.Stats(), g.f.Snapshot()
	t := g.run(r, cfg.seed+1, part)
	st1, snap1 := g.f.Stats(), g.f.Snapshot()
	g.finish(r)
	if !u.ok || !t.ok {
		return r
	}
	service := ratio(float64(st1.Latency.Sum()-st0.Latency.Sum())/1e3, float64(st1.Latency.Count()-st0.Latency.Count()))
	setLayer(r, "fleet.service_us_mean", service)
	setLayer(r, "fleet.queue_wait_us_mean", t.meanLatUs()-service)
	if snap0.Telemetry != nil && snap1.Telemetry != nil {
		setMatrixMeans(r, *snap0.Telemetry, *snap1.Telemetry)
	}
	recPerReq := ratio(float64(snap1.Members[0].Syscalls-snap0.Members[0].Syscalls), float64(t.requests))
	setLayer(r, "monitor.records", recPerReq)
	setLayer(r, "monitor.records_per_req", recPerReq)

	if !directPhase(r, mvee(setupReps), cfg.seed, part) {
		return r
	}
	nat, _, _, ok := setUpGateway(r, func(i int) core.Options { return nativeOptions(runSeed(cfg.seed, setupReps+1+i)) }, cfg.seed)
	if !ok {
		return r
	}
	n := nat.run(r, cfg.seed, part)
	nat.finish(r)
	if !n.ok {
		return r
	}
	uP50, nP50 := u.latUs(0.5), n.latUs(0.5)
	setLayer(r, "webserver.native_latency_us_p50", nP50)
	setLayer(r, "webserver.native_cpu_us_per_req", n.cpuPerReq())
	setLayer(r, "monitor.us_per_record", ratio(uP50-nP50, recPerReq))
	probeLayers(r, cfg.seed)
	setOverhead(r, "latency_us_p50", t.latUs(0.5), uP50)
	fmt.Printf("native: latency_us_p50=%.3f  mvee overhead=%+.1f%% (p50)\n", nP50, ratio((uP50-nP50)*100, nP50))
	return r
}

// direct drives the gateway's member server without the gateway: each
// request connects, writes, waits for the reply and closes, each step
// timed.
type direct struct {
	srv                    *serverSession
	bufs                   [clients][]byte
	connNs, sendNs, waitNs [clients]hist
}

func (d *direct) send(c int, count bool) ([]byte, error) {
	t0 := time.Now()
	cc, errno := d.srv.sess.Kernel().Connect(serverPort)
	if errno != kernel.OK {
		return nil, errno
	}
	defer cc.Close()
	t1 := time.Now()
	if _, err := cc.Write(request(count)); err != nil {
		return nil, err
	}
	t2 := time.Now()
	reply, err := readReply(cc, d.bufs[c], len(gatewayCheck.page), count)
	d.connNs[c].add(int64(t1.Sub(t0)))
	d.sendNs[c].add(int64(t2.Sub(t1)))
	d.waitNs[c].add(int64(time.Since(t2)))
	return reply, err
}

// directPhase runs the direct load for dur and reports the kernel client
// path timings and the member's agent, monitor, ring and futex counts.
func directPhase(r *result, opts core.Options, seed int64, dur time.Duration) bool {
	ring0, futex0 := ring.ReadMetrics(), futex.ReadMetrics()
	srv, err := startServer(opts, gatewayServer)
	if err != nil {
		r.Attempted++
		r.Failed++
		fmt.Printf("set-up failed: %v\n", err)
		return false
	}
	d := &direct{srv: srv}
	for c := range d.bufs {
		d.bufs[c] = make([]byte, 2*len(gatewayCheck.page))
	}
	wd := startWatchdog(srv.sess.Kill)
	s := timed(r, make([]clientStats, clients), d.send, gatewayCheck, seed, dur, wd)
	wd.close()
	if s.ok {
		checkClosingCount(r, d.send, gatewayCheck, s.requests)
	}
	res := srv.stop(serverPort)
	ring1, futex1 := ring.ReadMetrics(), futex.ReadMetrics()
	checkSession(r, res)
	if !s.ok {
		return false
	}
	var conn, send, wait hist
	for c := range d.connNs {
		conn.merge(&d.connNs[c])
		send.merge(&d.sendNs[c])
		wait.merge(&d.waitNs[c])
	}
	setLayer(r, "kernel.connect_us_p50", conn.quantile(0.5)/1e3)
	setLayer(r, "kernel.send_us_p50", send.quantile(0.5)/1e3)
	setLayer(r, "kernel.response_wait_us_p50", wait.quantile(0.5)/1e3)
	reqs := float64(s.requests + 1)
	setLayer(r, "agent.sync_ops", float64(res.SyncOps)/reqs)
	setLayer(r, "agent.stalls", float64(res.Stalls)/reqs)
	setRingFutex(r, ring0, ring1, futex0, futex1, float64(res.Syscalls+res.SyncOps))
	return true
}
