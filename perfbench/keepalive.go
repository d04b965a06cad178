package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/futex"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/telemetry"
	"repro/internal/webserver"
)

// keepAliveConfig is the evented §5.5 server serving a 4 KiB page.
var keepAliveConfig = webserver.Config{Port: serverPort, Evented: true, PageSize: 4096}

// keepAlive is one evented server session and the clients' kept
// connections.
type keepAlive struct {
	srv   *serverSession
	conns [clients]kernel.ClientConn
	bufs  [clients][]byte
	chk   replyCheck
	st    []clientStats // the clients' state, kept across phases
	sent  int           // requests sent to this server so far
	// broken is set once a request failed.
	broken bool
	// traced splits each request into the write and the wait for the
	// reply; only traced phases set it.
	traced         bool
	sendNs, waitNs [clients]hist
}

func startKeepAlive(opts core.Options) (*keepAlive, error) {
	srv, err := startServer(opts, keepAliveConfig)
	if err != nil {
		return nil, err
	}
	k := &keepAlive{srv: srv, chk: replyCheck{page: pageReply(keepAliveConfig), countStep: 1}, st: make([]clientStats, clients)}
	for c := range k.conns {
		cc, errno := srv.sess.Kernel().Connect(serverPort)
		if errno != kernel.OK {
			srv.stop(serverPort)
			return nil, fmt.Errorf("connect: %v", errno)
		}
		k.conns[c] = cc
		k.bufs[c] = make([]byte, 2*len(k.chk.page))
	}
	return k, nil
}

// send is one request on client c's kept connection.
func (k *keepAlive) send(c int, count bool) ([]byte, error) {
	cc := k.conns[c]
	if !k.traced {
		if _, err := cc.Write(request(count)); err != nil {
			return nil, err
		}
		return readReply(cc, k.bufs[c], len(k.chk.page), count)
	}
	t0 := time.Now()
	if _, err := cc.Write(request(count)); err != nil {
		return nil, err
	}
	t1 := time.Now()
	reply, err := readReply(cc, k.bufs[c], len(k.chk.page), count)
	k.sendNs[c].add(int64(t1.Sub(t0)))
	k.waitNs[c].add(int64(time.Since(t1)))
	return reply, err
}

// warmUp sends the untimed warm-up under the request watchdog.
func (k *keepAlive) warmUp(r *result, seed int64) bool {
	wd := startWatchdog(k.srv.sess.Kill)
	defer wd.close()
	n, ok := warm(r, k.st, k.send, k.chk, seed, warmupBlocks, wd)
	k.sent += n
	k.broken = k.broken || !ok
	return ok
}

// run drives the timed closed loop for dur under the request watchdog.
func (k *keepAlive) run(r *result, seed int64, dur time.Duration) serverSamples {
	wd := startWatchdog(k.srv.sess.Kill)
	defer wd.close()
	s := timed(r, k.st, k.send, k.chk, seed, dur, wd)
	k.sent += s.requests
	k.broken = k.broken || !s.ok
	return s
}

// finish sends the closing /count (unless a request failed, which leaves
// the count of requests the server saw unknown), closes the connections,
// stops the server and checks its result.
func (k *keepAlive) finish(r *result) *core.Result {
	if !k.broken {
		checkClosingCount(r, k.send, k.chk, k.sent)
		k.sent++
	}
	for _, cc := range k.conns {
		cc.Close()
	}
	res := k.srv.stop(serverPort)
	checkSession(r, res)
	return res
}

// setUpKeepAlive builds, starts and warms a server setupReps times (the
// earlier ones are torn down untimed) and returns the last one with the
// median set-up time.
func setUpKeepAlive(r *result, opts func(rep int) core.Options, seed int64) (*keepAlive, float64, bool) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		k, err := startKeepAlive(opts(i))
		if err != nil {
			r.Attempted++
			r.Failed++
			fmt.Printf("set-up failed: %v\n", err)
			return nil, 0, false
		}
		if !k.warmUp(r, seed) {
			k.finish(r)
			return nil, 0, false
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupReps-1 {
			fmt.Printf("setups_s=%.4f\n", setups)
			return k, median(setups), true
		}
		k.finish(r)
	}
	panic("unreachable")
}

func runKeepAlive(cfg config) *result {
	r := newResult()
	k, setup, ok := setUpKeepAlive(r, func(i int) core.Options { return mveeOptions(runSeed(cfg.seed, i)) }, cfg.seed)
	if !ok {
		return r
	}
	rec0 := k.srv.sess.Monitor().Syscalls(0)
	s := k.run(r, cfg.seed, cfg.seconds)
	rec := k.srv.sess.Monitor().Syscalls(0) - rec0
	k.finish(r)
	s.setEndToEnd(r)
	r.set("setup_s", setup, "s")
	fmt.Printf("reference: records/req=%.3f\n", ratio(float64(rec), float64(s.requests)))
	return r
}

// traceKeepAlive is the traced run. Phases of a quarter of the timed
// length each: untraced and traced load on one server (the tracing
// overhead is their difference; the traced phase splits requests into
// send and reply wait and counts monitor records and ring/futex events),
// the same load with the monitor's telemetry on (per-syscall latency
// means, and telemetry's CPU cost per request), and the load on a native
// server. Then the layer probe guest runs.
func traceKeepAlive(cfg config) *result {
	r := newResult()
	setLayerDefaults(r)
	part := cfg.seconds / 4
	mvee := func(tel bool) func(int) core.Options {
		return func(i int) core.Options {
			o := mveeOptions(runSeed(cfg.seed, i))
			o.Telemetry = tel
			return o
		}
	}
	setLayer(r, "core.new_session_ms", newSessionMs(mvee(false)(0), webserver.Program(keepAliveConfig)))

	ring0, futex0 := ring.ReadMetrics(), futex.ReadMetrics()
	k, _, ok := setUpKeepAlive(r, mvee(false), cfg.seed)
	if !ok {
		return r
	}
	u := k.run(r, cfg.seed, part)
	k.traced = true
	rec0 := k.srv.sess.Monitor().Syscalls(0)
	t := k.run(r, cfg.seed+1, part)
	rec := k.srv.sess.Monitor().Syscalls(0) - rec0
	res := k.finish(r)
	ring1, futex1 := ring.ReadMetrics(), futex.ReadMetrics()
	if !u.ok || !t.ok {
		return r
	}
	var send, wait hist
	for c := range k.sendNs {
		send.merge(&k.sendNs[c])
		wait.merge(&k.waitNs[c])
	}
	setLayer(r, "kernel.send_us_p50", send.quantile(0.5)/1e3)
	setLayer(r, "kernel.response_wait_us_p50", wait.quantile(0.5)/1e3)
	recPerReq := ratio(float64(rec), float64(t.requests))
	setLayer(r, "monitor.records", recPerReq)
	setLayer(r, "monitor.records_per_req", recPerReq)
	setLayer(r, "agent.sync_ops", ratio(float64(res.SyncOps), float64(k.sent)))
	setLayer(r, "agent.stalls", ratio(float64(res.Stalls), float64(k.sent)))
	// The ring/futex window spans the whole session (set-up, both phases,
	// shutdown), so it is divided by the whole session's events.
	setRingFutex(r, ring0, ring1, futex0, futex1, float64(res.Syscalls+res.SyncOps))

	m, ok := keepAlivePhase(r, mvee(true)(setupReps), cfg.seed, part, true)
	if !ok {
		return r
	}
	n, ok := keepAlivePhase(r, nativeOptions(runSeed(cfg.seed, setupReps+1)), cfg.seed, part, false)
	if !ok {
		return r
	}
	uP50, nP50 := u.latUs(0.5), n.latUs(0.5)
	setLayer(r, "webserver.native_latency_us_p50", nP50)
	setLayer(r, "webserver.native_cpu_us_per_req", n.cpuPerReq())
	setLayer(r, "monitor.us_per_record", ratio(uP50-nP50, recPerReq))
	setLayer(r, "telemetry.cpu_us_per_req", m.cpuPerReq()-u.cpuPerReq())
	probeLayers(r, cfg.seed)
	setOverhead(r, "latency_us_p50", t.latUs(0.5), uP50)
	fmt.Printf("native: latency_us_p50=%.3f  mvee overhead=%+.1f%% (p50)\n", nP50, ratio((uP50-nP50)*100, nP50))
	return r
}

// keepAlivePhase runs the load on a fresh server for dur. With telemetry
// on it reports the monitor's per-syscall latency means over the phase.
func keepAlivePhase(r *result, opts core.Options, seed int64, dur time.Duration, tel bool) (serverSamples, bool) {
	k, err := startKeepAlive(opts)
	if err != nil {
		r.Attempted++
		r.Failed++
		fmt.Printf("set-up failed: %v\n", err)
		return serverSamples{}, false
	}
	if !k.warmUp(r, seed) {
		k.finish(r)
		return serverSamples{}, false
	}
	var before telemetry.Snapshot
	if tel {
		before = k.srv.sess.Telemetry().Matrix.Snapshot()
	}
	s := k.run(r, seed, dur)
	if tel {
		setMatrixMeans(r, before, k.srv.sess.Telemetry().Matrix.Snapshot())
	}
	k.finish(r)
	return s, s.ok
}

// newSessionMs is the median time of core.NewSession for opts and prog
// over a few builds. The sessions are never started, so they hold no
// goroutines and are simply dropped.
func newSessionMs(opts core.Options, prog core.Program) float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		core.NewSession(opts, prog)
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}
