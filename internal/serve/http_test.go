package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"femtoverse/internal/core"
	"femtoverse/internal/lattice"
)

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close body: %v", err)
		}
	}()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHTTPValidationAndErrorMapping pins the request-decoding contract:
// the shared validator's findings come back as 400s naming the field,
// quota refusals as 429, unknown campaigns as 404, and submissions to a
// draining server as 503.
func TestHTTPValidationAndErrorMapping(t *testing.T) {
	s, _ := newTestServer(t, Config{StartPaused: true, DefaultQuota: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp := postJSON(t, hs.URL, "{")
	if body := drainBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d %s", resp.StatusCode, body)
	}
	resp = postJSON(t, hs.URL, `{"tenant":"x","bogus":1}`)
	if body := drainBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, body)
	}
	resp = postJSON(t, hs.URL, `{"tenant":"x","spec":{"tol":-1,"nconfigs":0}}`)
	body := drainBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "spec.tol") || !strings.Contains(body, "spec.nconfigs") {
		t.Fatalf("validation errors not collected: %s", body)
	}
	resp = postJSON(t, hs.URL, `{"spec":{"nconfigs":2}}`)
	if body := drainBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing tenant: %d %s", resp.StatusCode, body)
	}
	// One configuration cannot be jackknifed: refused here, not a panic
	// in the analysis after the solves.
	resp = postJSON(t, hs.URL, `{"tenant":"x","spec":{"nconfigs":1}}`)
	if body := drainBody(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "spec.nconfigs") {
		t.Fatalf("single-configuration campaign: %d %s", resp.StatusCode, body)
	}
	resp = postJSON(t, hs.URL, `{"tenant":"x","spec":{"nconfigs":3}}`)
	if body := drainBody(t, resp); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(hs.URL + "/v1/campaigns/c999999")
	if err != nil {
		t.Fatal(err)
	}
	if body := drainBody(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := drainBody(t, resp); resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, hs.URL, `{"tenant":"x","spec":{"nconfigs":2}}`)
	if body := drainBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: %d %s", resp.StatusCode, body)
	}
}

// TestUnrunnableSpecRefused checks that a spec the pipeline cannot run,
// or the server will not, is refused at submission - 400 over HTTP, an
// error through the Go API - and that nothing reaches the state directory:
// no journal, no sidecar. Odd or unit extents fail lattice.New and the
// Mobius values fail NewMobius, both only at the first solve if admitted;
// a lattice past the server's caps on sites and Ls, or one whose site
// count overflows, would take the server's memory.
func TestUnrunnableSpecRefused(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{StartPaused: true, StateDir: dir})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for _, spec := range []string{
		`{"dims":[3,2,2,8]}`,
		`{"dims":[2,2,2,1]}`,
		`{"ls":1}`,
		`{"m5":2.5}`,
		`{"b5":0}`,
		`{"mass":-1}`,
		`{"dims":[16,16,16,16]}`,
		`{"ls":64}`,
		`{"dims":[4294967296,4294967296,2,2]}`,
	} {
		resp := postJSON(t, hs.URL, `{"tenant":"a","spec":`+spec+`}`)
		if body := drainBody(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: %d %s, want 400", spec, resp.StatusCode, body)
		}
	}
	bad := tinySpec(1, 2)
	bad.Dims[0] = 3
	single := tinySpec(1, 1)
	for _, spec := range []core.RealConfig{bad, single} {
		if _, err := s.SubmitCampaign("a", 1, "", spec); err == nil {
			t.Errorf("SubmitCampaign accepted dims %v, %d configurations", spec.Dims, spec.NConfigs)
		}
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("refused submission left %s on disk", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBodyCapped: a submission body past maxRequestBytes is refused
// with 413 before it is decoded whole, and nothing is admitted.
func TestSubmitBodyCapped(t *testing.T) {
	s, _ := newTestServer(t, Config{StartPaused: true})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp := postJSON(t, hs.URL, `{"tenant":"a","name":"`+strings.Repeat("x", maxRequestBytes)+`","spec":{"nconfigs":2}}`)
	if body := drainBody(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", resp.StatusCode, body)
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("%d campaigns admitted from an oversized body", n)
	}
}

// FuzzSubmitRequest decodes arbitrary bodies as handleSubmit does: each
// either fails to decode or to validate, or yields a campaign spec that
// core accepts, on a lattice inside the server's caps that lattice.New
// builds - and nothing panics.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"a"}`,
		`{"tenant":"a","priority":2,"name":"n","spec":{"dims":[2,2,2,4],"ls":2,"nconfigs":3,"seed":11,"therm":2,"gap":1,"tol":1e-5,"prec":"half"}}`,
		`{"tenant":"a","spec":{"dims":[16,16,16,16]}}`,
		`{"tenant":"a","spec":{"dims":[4294967296,4294967296,2,2],"ls":1000}}`,
		`{"tenant":"a","spec":{"dims":[-2,2,2,2],"m5":2.5,"b5":0}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req SubmitRequest
		if dec.Decode(&req) != nil {
			return
		}
		spec, err := req.RealConfig()
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: admitted spec fails core's validation: %v", body, err)
		}
		d := spec.Dims
		if sites := float64(d[0]) * float64(d[1]) * float64(d[2]) * float64(d[3]); sites > maxSites || spec.Params.Ls > maxLs {
			t.Fatalf("%s: admitted %v (%g sites), Ls %d, past the caps", body, d, sites, spec.Params.Ls)
		}
		if _, err := lattice.New(d); err != nil {
			t.Fatalf("%s: admitted extents lattice.New rejects: %v", body, err)
		}
	})
}

// TestHTTPCampaignLifecycle drives one campaign end to end over HTTP:
// submit, stream its events until the terminal "complete" (the stream
// must end by itself, in order, without timestamps), then fetch the
// status, the Chrome trace, the dispatch log, and /metrics.
func TestHTTPCampaignLifecycle(t *testing.T) {
	s, _ := newTestServer(t, Config{SolveWorkers: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp := postJSON(t, hs.URL, `{"tenant":"alpha","name":"lifecycle","spec":{"dims":[2,2,2,4],"ls":2,"nconfigs":2,"seed":31,"therm":2,"gap":1,"tol":1e-5}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, drainBody(t, resp))
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	eresp, err := http.Get(hs.URL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := eresp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("too few events: %+v", events)
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d: %+v", i, e.Seq, events)
		}
	}
	if events[0].Kind != "submitted" || events[len(events)-1].Kind != "complete" {
		t.Fatalf("event log shape: first=%s last=%s", events[0].Kind, events[len(events)-1].Kind)
	}

	final, err := s.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != stateComplete || final.Fingerprint == "" || final.Done != 2 {
		t.Fatalf("final status: %+v", final)
	}

	tresp, err := http.Get(hs.URL + "/v1/campaigns/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	trace := drainBody(t, tresp)
	if tresp.StatusCode != http.StatusOK || !json.Valid([]byte(trace)) {
		t.Fatalf("trace: %d, valid=%v", tresp.StatusCode, json.Valid([]byte(trace)))
	}
	if !bytes.Contains([]byte(trace), []byte("solve 000")) {
		t.Fatalf("trace missing solve spans: %s", trace)
	}

	dresp, err := http.Get(hs.URL + "/v1/dispatch")
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	if err := json.NewDecoder(dresp.Body).Decode(&log); err != nil {
		t.Fatal(err)
	}
	if err := dresp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || !strings.HasPrefix(log[0], "alpha/"+st.ID) {
		t.Fatalf("dispatch log: %v", log)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := drainBody(t, mresp)
	if mresp.StatusCode != http.StatusOK || !strings.Contains(metrics, "serve.campaigns_completed") {
		t.Fatalf("metrics: %d\n%s", mresp.StatusCode, metrics)
	}
}
