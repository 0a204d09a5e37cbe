package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"

	"femtoverse/internal/core"
	"femtoverse/internal/solver"
	"femtoverse/internal/validate"

	jobrt "femtoverse/internal/runtime"
)

// SubmitRequest is the JSON body of POST /v1/campaigns. Spec fields are
// pointers: absent fields take the repository's default real-campaign
// spec, so a minimal request is {"tenant":"a"}.
type SubmitRequest struct {
	Tenant   string      `json:"tenant"`
	Priority int         `json:"priority"`
	Name     string      `json:"name,omitempty"`
	Spec     SpecRequest `json:"spec"`
}

// SpecRequest overrides individual fields of core.DefaultRealConfig.
type SpecRequest struct {
	Dims     *[4]int  `json:"dims,omitempty"`
	Ls       *int     `json:"ls,omitempty"`
	M5       *float64 `json:"m5,omitempty"`
	B5       *float64 `json:"b5,omitempty"`
	C5       *float64 `json:"c5,omitempty"`
	Mass     *float64 `json:"mass,omitempty"`
	NConfigs *int     `json:"nconfigs,omitempty"`
	Seed     *int64   `json:"seed,omitempty"`
	Beta     *float64 `json:"beta,omitempty"`
	Therm    *int     `json:"therm,omitempty"`
	Gap      *int     `json:"gap,omitempty"`
	Tol      *float64 `json:"tol,omitempty"`
	Prec     *string  `json:"prec,omitempty"`
}

// The lattice a request may name: at most maxSites 4-D sites (8^4) and
// maxLs fifth-dimension slices, 25 MB a 5-D double-precision field. The
// campaigns the tests, examples and benchmark submit have 64 sites or
// fewer and Ls 4 or less; the caps stop one request from naming a lattice
// that exhausts the server's memory. maxRequestBytes caps the body.
const (
	maxSites        = 1 << 12
	maxLs           = 32
	maxRequestBytes = 1 << 16
)

// Validate checks the request through the same validator package the
// command-line flag sweeps use, collecting every problem at once.
func (r SubmitRequest) Validate() error {
	var errs []error
	if strings.TrimSpace(r.Tenant) == "" || strings.ContainsAny(r.Tenant, "/\\ \t\r\n") {
		errs = append(errs, errors.New("tenant: must be a non-empty token without spaces or path separators"))
	}
	errs = append(errs, checkPriority(r.Priority))
	sp := r.Spec
	if sp.Dims != nil {
		sites := 1.0 // a float64 holds a product of four ints without overflow
		for i, d := range sp.Dims {
			errs = append(errs, validate.PositiveInt(fmt.Sprintf("spec.dims[%d]", i), d))
			sites *= float64(d)
		}
		if sites > maxSites {
			errs = append(errs, fmt.Errorf("spec.dims %v has more than the %d sites the server runs", *sp.Dims, maxSites))
		}
	}
	if sp.Ls != nil {
		errs = append(errs, validate.PositiveInt("spec.ls", *sp.Ls), validate.AtMost("spec.ls", *sp.Ls, "the server's cap", maxLs))
	}
	if sp.NConfigs != nil && *sp.NConfigs < core.MinConfigs {
		errs = append(errs, fmt.Errorf("spec.nconfigs must be at least %d (got %d): the effective coupling is jackknifed over configurations", core.MinConfigs, *sp.NConfigs))
	}
	if sp.Beta != nil {
		errs = append(errs, validate.PositiveFloat("spec.beta", *sp.Beta))
	}
	if sp.Tol != nil {
		errs = append(errs, validate.PositiveFloat("spec.tol", *sp.Tol))
	}
	if sp.Therm != nil {
		errs = append(errs, validate.NonNegativeInt("spec.therm", *sp.Therm))
	}
	if sp.Gap != nil {
		errs = append(errs, validate.NonNegativeInt("spec.gap", *sp.Gap))
	}
	if sp.Prec != nil {
		if _, err := parsePrecision(*sp.Prec); err != nil {
			errs = append(errs, err)
		}
	}
	return validate.All(errs...)
}

// RealConfig validates the request and materializes its campaign spec
// over the repository default; a spec the pipeline cannot run (odd or
// unit extents, Mobius parameters NewMobius rejects) is an error here.
func (r SubmitRequest) RealConfig() (core.RealConfig, error) {
	if err := r.Validate(); err != nil {
		return core.RealConfig{}, err
	}
	spec := core.DefaultRealConfig()
	sp := r.Spec
	if sp.Dims != nil {
		spec.Dims = *sp.Dims
	}
	if sp.Ls != nil {
		spec.Params.Ls = *sp.Ls
	}
	if sp.M5 != nil {
		spec.Params.M5 = *sp.M5
	}
	if sp.B5 != nil {
		spec.Params.B5 = *sp.B5
	}
	if sp.C5 != nil {
		spec.Params.C5 = *sp.C5
	}
	if sp.Mass != nil {
		spec.Params.M = *sp.Mass
	}
	if sp.NConfigs != nil {
		spec.NConfigs = *sp.NConfigs
	}
	if sp.Seed != nil {
		spec.Seed = *sp.Seed
	}
	if sp.Beta != nil {
		spec.Beta = *sp.Beta
	}
	if sp.Therm != nil {
		spec.ThermSweeps = *sp.Therm
	}
	if sp.Gap != nil {
		spec.GapSweeps = *sp.Gap
	}
	if sp.Tol != nil {
		spec.Tol = *sp.Tol
	}
	if sp.Prec != nil {
		p, err := parsePrecision(*sp.Prec)
		if err != nil {
			return core.RealConfig{}, err
		}
		spec.Prec = p
	}
	return spec, spec.Validate()
}

func parsePrecision(s string) (solver.Precision, error) {
	switch strings.ToLower(s) {
	case "double":
		return solver.Double, nil
	case "single":
		return solver.Single, nil
	case "half":
		return solver.Half, nil
	}
	return 0, fmt.Errorf("spec.prec: must be one of double, single, half (got %q)", s)
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/dispatch", s.handleDispatch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.reg.Counter("serve.http_write_errors").Inc()
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "serve: bad request body: "+err.Error(), code)
		return
	}
	spec, err := req.RealConfig()
	if err != nil {
		http.Error(w, "serve: invalid campaign request:\n"+err.Error(), http.StatusBadRequest)
		return
	}
	st, err := s.SubmitCampaign(req.Tenant, req.Priority, req.Name, spec)
	switch {
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, jobrt.ErrRefused):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		s.writeJSON(w, http.StatusCreated, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the campaign's event log as NDJSON: everything
// recorded so far immediately, then each new event as it lands, closing
// once the campaign is terminal. Chunked transfer is the transport -
// each flush is one chunk.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "serve: streaming unsupported", http.StatusInternalServerError)
		return
	}
	enc := json.NewEncoder(w)
	after := 0
	first := true
	for {
		evs, ch, terminal, err := s.Events(id, after)
		if err != nil {
			if first {
				http.Error(w, err.Error(), http.StatusNotFound)
			}
			return
		}
		if first {
			w.Header().Set("Content-Type", "application/x-ndjson")
			first = false
		}
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				s.reg.Counter("serve.http_write_errors").Inc()
				return
			}
			after = e.Seq
		}
		fl.Flush()
		if terminal {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Existence first, so a miss is a clean 404 rather than a torn body.
	if _, err := s.Status(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.WriteTrace(id, w); err != nil {
		s.reg.Counter("serve.http_write_errors").Inc()
	}
}

func (s *Server) handleDispatch(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.DispatchLog())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := fmt.Fprint(w, s.MetricsText()); err != nil {
		s.reg.Counter("serve.http_write_errors").Inc()
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	if _, err := fmt.Fprintln(w, status); err != nil {
		s.reg.Counter("serve.http_write_errors").Inc()
	}
}

// writeSidecar persists a campaign's metadata sidecar with the same
// atomic idiom as the journal checkpoints: temp file, then rename.
func writeSidecar(path string, sc sidecar) error {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// decodeJSONStrict unmarshals rejecting unknown fields, so a sidecar
// from a future schema is a counted resume error instead of silently
// half-parsed state.
func decodeJSONStrict(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
