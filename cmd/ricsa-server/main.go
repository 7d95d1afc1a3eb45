// Command ricsa-server runs a live multi-session RICSA deployment on this
// machine: up to -max-sessions steerable hydrodynamics simulations, each
// with its own visualization loop, behind the multi-session Ajax front end.
// The central management state — the measured network graph and the
// memoized pipeline optimizer — is shared by every session. A background
// prober re-measures a few links every -probe-interval and re-stamps the
// graph only when an estimate drifts past -probe-tolerance; sessions whose
// installed mapping deviates past -adapt-tolerance for -adapt-window
// consecutive frames are re-optimized early. GET /api/cm exposes the
// control-plane state (probe epoch, per-edge staleness, adaptation
// counters); GET /metrics exports the Prometheus text exposition
// (per-frame stage timings, session/viewer/overload counters).
//
// Overload behavior is explicit: past -max-sessions creation replies 429;
// past the -frame-budget watermark (each session charging
// -frame-cost/period utilization) it replies 503; viewers more than
// -max-viewer-lag frames behind the live edge are evicted with a 503 that
// tells the client to back off and re-join.
//
// Point any browser at the listen address for the session list; each
// session page streams frames to any number of concurrent viewers and
// accepts steering. A default session is created at startup from the -sim/
// -var/-method flags so the service is immediately watchable; its endpoints
// come from -source/-client (or -clients for a multi-viewer routing tree).
// Create more with the web form or POST /api/sessions, whose JSON may name
// any measured host as source_node/client_node/client_nodes.
//
// Usage:
//
//	ricsa-server -addr :8080 -max-sessions 16 -sim sod -var density
//	ricsa-server -source OSU -client UT
//	ricsa-server -source GaTech -clients ORNL,UT,NCState
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/fcp"
	"ricsa/internal/steering"
	"ricsa/internal/webui"
)

// Connection timeouts for hostile and slow clients: a header that never
// completes, a body trickled a byte at a time, a keep-alive connection
// parked forever. There is deliberately no WriteTimeout — a frame long-poll
// legitimately holds its response open for the Hub's PollTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	maxSessions := flag.Int("max-sessions", 16, "maximum concurrent simulation sessions")
	sim := flag.String("sim", "sod", "default session simulator: sod or bowshock")
	variable := flag.String("var", "density", "monitored variable: density or pressure")
	method := flag.String("method", "isosurface", "visualization: isosurface, raycast, or streamline")
	source := flag.String("source", "GaTech",
		"testbed host running the default session's data source")
	client := flag.String("client", "ORNL",
		"testbed host the default session delivers frames to")
	clients := flag.String("clients", "",
		"comma-separated viewer hosts for a multi-viewer default session "+
			"(one shared routing tree; overrides -client)")
	iso := flag.Float64("iso", 0.5, "isovalue for isosurface extraction")
	nx := flag.Int("nx", 96, "grid cells in x")
	ny := flag.Int("ny", 48, "grid cells in y")
	nz := flag.Int("nz", 48, "grid cells in z")
	steps := flag.Int("steps", 2, "solver cycles per frame")
	period := flag.Duration("period", 150*time.Millisecond, "frame period")
	reopt := flag.Int("reoptimize-every", 8, "frames between CM optimizer consultations")
	probeInterval := flag.Duration("probe-interval", 5*time.Second,
		"background prober cadence (0 disables continuous re-measurement)")
	probeLinks := flag.Int("probe-links", 2, "directed links re-probed per prober tick")
	probeTolerance := flag.Float64("probe-tolerance", 0.05,
		"relative estimate drift that re-stamps the measured graph")
	adaptTolerance := flag.Float64("adapt-tolerance", 0.5,
		"fractional delay deviation that counts a frame as degraded")
	adaptWindow := flag.Int("adapt-window", 2,
		"consecutive degraded frames before a session is re-optimized early")
	frameBudget := flag.Float64("frame-budget", 0,
		"admission watermark: total frame-production utilization admitted "+
			"sessions may sum to (0 disables; each session charges "+
			"frame-cost/period)")
	frameCost := flag.Duration("frame-cost", 0,
		"nominal production cost of one frame charged against -frame-budget "+
			"(0 disables the watermark)")
	maxViewerLag := flag.Int("max-viewer-lag", 0,
		"frames a viewer may fall behind the live edge before it is evicted "+
			"(0 disables slow-consumer eviction)")
	computeWorkers := flag.Int("compute-workers", 0,
		"shared frame-compute pool width for sim sweeps and block extraction "+
			"(0 selects GOMAXPROCS, 1 runs fully inline)")
	maxTierFlag := flag.String("max-tier", "full",
		"deepest viewer quality tier the optimizer and frame endpoints may "+
			"degrade to: full, half, quarter, or delta")
	noBootstrap := flag.Bool("no-bootstrap", false, "do not create the default session at startup")
	flag.Parse()

	maxTier, err := cost.ParseTier(*maxTierFlag)
	if err != nil {
		log.Fatalf("ricsa-server: %v", err)
	}

	fcp.SetDefaultWorkers(*computeWorkers)
	mgr := steering.NewSessionManager(steering.ManagerConfig{
		MaxSessions:       *maxSessions,
		ReoptimizeEvery:   *reopt,
		ProbeInterval:     *probeInterval,
		ProbeLinksPerTick: *probeLinks,
		ProbeTolerance:    *probeTolerance,
		AdaptTolerance:    *adaptTolerance,
		AdaptWindow:       *adaptWindow,
		FrameBudget:       *frameBudget,
		FrameCost:         *frameCost,
		MaxViewerLag:      *maxViewerLag,
		MaxTier:           maxTier,
	})

	if !*noBootstrap {
		req := steering.DefaultRequest()
		req.Simulator = *sim
		req.Variable = *variable
		req.Method = *method
		req.Isovalue = float32(*iso)
		req.NX, req.NY, req.NZ = *nx, *ny, *nz
		req.StepsPerFrame = *steps
		req.SourceNode = *source
		req.ClientNode = *client
		if *clients != "" {
			for _, host := range strings.Split(*clients, ",") {
				if host = strings.TrimSpace(host); host != "" {
					req.ClientNodes = append(req.ClientNodes, host)
				}
			}
		}
		s, err := mgr.CreateTuned(req, *period, 0, 0)
		if err != nil {
			log.Fatalf("ricsa-server: bootstrap session: %v", err)
		}
		fmt.Printf("RICSA server: session %s simulating %q (%s -> %s)\n",
			s.ID, *sim, req.SourceNode, strings.Join(req.Destinations(), ","))
	}

	srv := newHTTPServer(*addr, webui.NewHub(mgr).Handler())

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\nRICSA server: draining sessions...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			log.Printf("ricsa-server: session shutdown: %v", err)
		}
		srv.Shutdown(ctx)
	}()

	fmt.Printf("RICSA server: up to %d sessions, serving http://%s/\n", *maxSessions, *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ricsa-server: %v", err)
	}
}
