// Package webui is the RICSA Ajax front end: an HTTP server that delivers
// incremental image updates to browser clients and accepts steering
// commands, replacing the "click, wait, and refresh" page model with the
// data-driven partial-update model of Section 1.
//
// The 2008 paper used GWT and XMLHttpRequest object exchange; here the
// embedded client page uses raw XHR long-polling against
// /sessions/{id}/api/frame, which preserves the mechanics that matter —
// only the image element updates when a new frame arrives, and steering
// posts happen asynchronously while the animation continues. Any number of
// browsers can watch one computation.
//
// Hub is the one front end: it routes /sessions/{id}/... to the live
// sessions of a steering.SessionManager, multiplexes any number of viewers
// per session, and exposes session CRUD plus the shared optimizer-cache
// counters. cmd/ricsa-server serves a Hub; examples/webdemo embeds one.
package webui

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/steering"
)

// serveFrame implements the long-poll frame protocol of the Hub's
// per-session frame route: parse ?since, wait under the poll timeout (204 on
// expiry, 410 if the session died mid-wait), and reply with the frame, its
// sequence header, and the tier actually served. tier is the viewer's negotiated tier; the body is
// sniffed so a full-frame fallback (or a delta wire frame) is labelled
// truthfully and typed application/octet-stream when it is not a PNG.
func serveFrame(w http.ResponseWriter, r *http.Request, timeout time.Duration, tier cost.Tier,
	wait func(ctx context.Context, since uint64) (uint64, []byte, error)) {
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = n
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	seq, png, err := wait(ctx, since)
	if err != nil {
		switch {
		case ctx.Err() != nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, steering.ErrNoSession):
			http.Error(w, err.Error(), http.StatusGone)
		case errors.Is(err, steering.ErrViewerEvicted):
			// The slow-consumer policy dropped this viewer; tell the
			// client to back off rather than treat it as a dead session.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	served := tier
	if isDeltaWire(png) {
		served = cost.TierDelta
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		if served == cost.TierDelta {
			// Delta negotiated but a PNG arrived: the tier was not encoded
			// yet and the full frame was served instead.
			served = cost.TierFull
		}
		w.Header().Set("Content-Type", "image/png")
	}
	w.Header().Set("X-Frame-Seq", strconv.FormatUint(seq, 10))
	w.Header().Set("X-Frame-Tier", served.String())
	w.Header().Set("Cache-Control", "no-store")
	w.Write(png)
}

// isDeltaWire reports whether a frame body is a delta-tier wire message
// (viz keyframe or delta container) rather than a bare PNG.
func isDeltaWire(b []byte) bool {
	return len(b) >= 4 && b[0] == 'R' && (b[1] == 'K' || b[1] == 'D') && b[2] == 'F' && b[3] == '1'
}

// clientPage renders the embedded browser client — an image that updates in
// place via long-polling XHR and a steering form that posts asynchronously —
// against the session API mounted under base ("/sessions/{id}").
func clientPage(base, title string) string {
	return fmt.Sprintf(indexHTML, base, title)
}

// indexHTML is the clientPage template: %[1]s is the API base path and
// %[2]s the page heading.
const indexHTML = `<!DOCTYPE html>
<html>
<head>
<title>RICSA — Computational Monitoring and Steering</title>
<style>
 body { font-family: sans-serif; background: #1b1b22; color: #ddd; margin: 1.5em; }
 #frame { border: 1px solid #555; image-rendering: pixelated; width: 512px; height: 512px; }
 .panel { display: inline-block; vertical-align: top; margin-left: 2em; }
 label { display: block; margin-top: .6em; }
 input { width: 8em; }
 #status { margin-top: 1em; font-size: .85em; color: #9a9; white-space: pre; }
</style>
</head>
<body>
<h2>%[2]s</h2>
<img id="frame" alt="waiting for first frame">
<div class="panel">
  <h3>Steering</h3>
  <form id="steer">
    <label>Left pressure <input name="left_pressure" type="number" step="0.1" value="1.0"></label>
    <label>Left density <input name="left_density" type="number" step="0.1" value="1.0"></label>
    <label>Isovalue <input name="isovalue" type="number" step="0.05" value="0.5"></label>
    <label>Yaw <input name="yaw" type="number" step="0.1" value="0.9"></label>
    <label>Pitch <input name="pitch" type="number" step="0.1" value="0.35"></label>
    <label>Zoom <input name="zoom" type="number" step="0.1" value="1.0"></label>
    <button type="submit">Steer</button>
  </form>
  <div id="status"></div>
</div>
<script>
let seq = 0;
async function pollFrames() {
  for (;;) {
    try {
      const resp = await fetch('%[1]s/api/frame?since=' + seq, {cache: 'no-store'});
      if (resp.status === 200) {
        seq = parseInt(resp.headers.get('X-Frame-Seq'), 10);
        const blob = await resp.blob();
        const img = document.getElementById('frame');
        const old = img.src;
        img.src = URL.createObjectURL(blob);
        if (old) URL.revokeObjectURL(old);
      } else if (resp.status === 404 || resp.status === 410) {
        document.getElementById('status').textContent = 'session ended';
        return;
      } else if (resp.status !== 204) {
        // 204 is the long-poll timeout: re-poll immediately. Anything
        // else is an error; back off instead of hammering the server.
        await new Promise(r => setTimeout(r, 1000));
      }
    } catch (e) {
      await new Promise(r => setTimeout(r, 1000));
    }
  }
}
async function pollStatus() {
  for (;;) {
    try {
      const resp = await fetch('%[1]s/api/status');
      document.getElementById('status').textContent =
        JSON.stringify(await resp.json(), null, 1);
    } catch (e) {}
    await new Promise(r => setTimeout(r, 2000));
  }
}
document.getElementById('steer').addEventListener('submit', async (ev) => {
  ev.preventDefault();
  const params = {};
  for (const el of ev.target.elements) {
    if (el.name && el.value !== '') params[el.name] = parseFloat(el.value);
  }
  await fetch('%[1]s/api/steer', {method: 'POST', body: JSON.stringify(params)});
});
pollFrames();
pollStatus();
</script>
</body>
</html>
`
