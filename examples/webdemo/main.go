// Webdemo launches the full live stack — a session manager running one
// steerable bow-shock simulation, its visualization loop, and the Ajax web
// front end — then drives it with an HTTP client exactly as a browser
// would: long-polling frames, posting a steering command, and confirming
// the animation responds. It is the embedding walkthrough: the same
// SessionManager + Hub pair cmd/ricsa-server runs, holding one session.
// Pass -serve to keep the server running for a real browser afterwards.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"ricsa/internal/steering"
	"ricsa/internal/webui"
)

func main() {
	serve := flag.String("serve", "", "after the demo, keep serving at this address (e.g. :8080)")
	flag.Parse()

	req := steering.DefaultRequest()
	req.Simulator = "bowshock"
	req.Variable = "pressure"
	req.Method = "raycast"
	req.NX, req.NY, req.NZ = 96, 48, 24
	req.StepsPerFrame = 2

	mgr := steering.NewSessionManager(steering.ManagerConfig{MaxSessions: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	s, err := mgr.CreateTuned(req, 100*time.Millisecond, 256, 256)
	if err != nil {
		log.Fatal(err)
	}
	hub := webui.NewHub(mgr)

	ts := httptest.NewServer(hub.Handler())
	defer ts.Close()
	api := ts.URL + "/sessions/" + s.ID + "/api"
	fmt.Printf("Ajax front end serving session %s at %s/sessions/%s\n", s.ID, ts.URL, s.ID)

	// Browser behaviour 1: long-poll frames, updating only the image.
	seq := uint64(0)
	for i := 0; i < 5; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/frame?since=%d", api, seq))
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("frame poll: status %d: %s", resp.StatusCode, body)
		}
		fmt.Sscan(resp.Header.Get("X-Frame-Seq"), &seq)
		fmt.Printf("frame %d: %d bytes of PNG\n", seq, len(body))
	}

	// Browser behaviour 2: steer the wind asynchronously.
	payload, _ := json.Marshal(map[string]float64{"wind_velocity": 5})
	resp, err := http.Post(api+"/steer", "application/json", bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("steer: status %d", resp.StatusCode)
	}
	fmt.Println("steered: wind velocity 3 -> 5")

	// Browser behaviour 3: the status sidebar.
	resp, err = http.Get(api + "/status")
	if err != nil {
		log.Fatal(err)
	}
	var status map[string]any
	json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	fmt.Printf("status: cycle=%v sim_time=%.4v frames=%v mapping=%v\n",
		status["cycle"], status["sim_time"], status["frame_seq"], status["vrt_path"])

	if *serve != "" {
		fmt.Printf("serving for real browsers at http://%s/ (Ctrl-C to stop)\n", *serve)
		log.Fatal(http.ListenAndServe(*serve, hub.Handler()))
	}
}
