package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"virtover/internal/core"
	"virtover/internal/obs"
	"virtover/internal/units"
)

// Telemetry ingestion: POST /v1/ingest accepts line-JSON batches — one
// sample per line, tenant-keyed — and feeds the per-tenant windows the
// refit loop learns from. Each line is decoded with the same strict
// discipline as the scenario envelope (unknown fields are errors, the
// version field is validated) so schema mistakes fail loudly at the edge
// instead of silently training a model on garbage.
//
// Partial-accept contract (asserted by TestServeIngestContract and
// documented in DESIGN.md §16): lines are applied in order as they parse.
// On the first malformed or over-limit line, processing stops and the
// request fails — but every well-formed line BEFORE it stays applied
// (telemetry ingestion is not transactional; applied samples cannot be
// unwound from the stream). The error message names the failing line
// (1-based) and the number of samples accepted before it, so a client can
// resume from the break without re-sending what landed.

// errTooLarge is mapped to HTTP 413 when a batch exceeds the configured
// line or byte bounds.
var errTooLarge = errors.New("serve: batch too large")

// ingestLine is the wire form of one telemetry sample. It mirrors
// core.Sample with the tenant key and the shared envelope version.
type ingestLine struct {
	Version int    `json:"version,omitempty"`
	Tenant  string `json:"tenant"`
	// N is the number of co-located VMs behind the sums (default 1).
	N int `json:"n,omitempty"`
	// VMSum is the componentwise sum of the guests' utilization vectors —
	// the in-VM-observable features of the uPredict modeling setup.
	VMSum vectorJSON `json:"vmSum"`
	// Dom0CPU and HypCPU are the measured overhead CPU components.
	Dom0CPU float64 `json:"dom0CPU"`
	HypCPU  float64 `json:"hypCPU"`
	// PM is the measured host utilization.
	PM vectorJSON `json:"pm"`
}

// sample converts the validated wire form.
func (l ingestLine) sample() core.Sample {
	n := l.N
	if n == 0 {
		n = 1
	}
	return core.Sample{
		N:       n,
		VMSum:   units.V(l.VMSum.CPU, l.VMSum.Mem, l.VMSum.IO, l.VMSum.BW),
		Dom0CPU: l.Dom0CPU,
		HypCPU:  l.HypCPU,
		PM:      units.V(l.PM.CPU, l.PM.Mem, l.PM.IO, l.PM.BW),
	}
}

// validate rejects lines that decode but make no sense as telemetry.
func (l ingestLine) validate() error {
	if l.Version != 0 && l.Version != apiVersion {
		return fmt.Errorf("%w: version: unsupported version %d (current %d)", errBadRequest, l.Version, apiVersion)
	}
	if err := validateTenantID(l.Tenant); err != nil {
		return err
	}
	if l.N < 0 {
		return fmt.Errorf("%w: n: must be >= 1 (0 defaults to 1), got %d", errBadRequest, l.N)
	}
	return nil
}

type ingestResponse struct {
	// Accepted counts the samples applied to tenant windows.
	Accepted int `json:"accepted"`
	// Tenants counts the distinct tenants the batch touched.
	Tenants int `json:"tenants"`
}

// ingestBatch applies a line-JSON body under the partial-accept contract.
// It returns the counts applied so far even on error. The sample counter
// mirrors that contract: lines accepted before a mid-batch failure are in
// their windows, so they count.
func (s *Server) ingestBatch(body *bufio.Scanner) (ingestResponse, error) {
	var res ingestResponse
	defer func() {
		s.m.ingestBatches.Inc()
		s.m.ingestSamples.Add(uint64(res.Accepted))
	}()
	seen := map[string]struct{}{}
	lineNo := 0
	for body.Scan() {
		raw := bytes.TrimSpace(body.Bytes())
		lineNo++
		if len(raw) == 0 {
			continue // blank lines separate client-side chunks; not samples
		}
		if res.Accepted >= s.opt.IngestMaxLines {
			return res, fmt.Errorf("%w: line %d: batch exceeds %d samples (accepted %d; resend the rest in another batch)",
				errTooLarge, lineNo, s.opt.IngestMaxLines, res.Accepted)
		}
		var l ingestLine
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&l); err != nil {
			return res, fmt.Errorf("%w: line %d: %s (accepted %d samples before it)",
				errBadRequest, lineNo, strings.TrimPrefix(err.Error(), "json: "), res.Accepted)
		}
		if len(bytes.TrimSpace(raw[dec.InputOffset():])) != 0 {
			return res, fmt.Errorf("%w: line %d: trailing data after the sample object (accepted %d samples before it)",
				errBadRequest, lineNo, res.Accepted)
		}
		if err := l.validate(); err != nil {
			return res, fmt.Errorf("line %d: %w (accepted %d samples before it)", lineNo, err, res.Accepted)
		}
		s.tenants.add(l.Tenant, l.sample())
		res.Accepted++
		if _, ok := seen[l.Tenant]; !ok {
			seen[l.Tenant] = struct{}{}
			res.Tenants++
		}
	}
	if err := body.Err(); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return res, fmt.Errorf("%w: body exceeds %d bytes (accepted %d samples before the cut)",
				errTooLarge, maxErr.Limit, res.Accepted)
		}
		if errors.Is(err, bufio.ErrTooLong) {
			return res, fmt.Errorf("%w: line %d exceeds the per-line size bound (accepted %d samples before it)",
				errBadRequest, lineNo+1, res.Accepted)
		}
		return res, fmt.Errorf("%w: reading body: %v", errBadRequest, err)
	}
	return res, nil
}

// maxIngestLineBytes bounds one telemetry line; a single sample is a few
// hundred bytes, so 64 KiB is generous headroom, not a tunable.
const maxIngestLineBytes = 64 << 10

// newIngestScanner splits an ingest body into lines under the per-line
// size bound.
func newIngestScanner(body io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 4096), maxIngestLineBytes)
	return sc
}

// handleIngest is POST /v1/ingest. Parsing and window appends are cheap
// (no simulation, no fitting), so ingestion runs inline on the connection
// goroutine rather than occupying a compute-pool slot — a telemetry flood
// must not starve fits and scenario runs of workers.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.observe(func() {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			s.writeError(w, r, errDraining)
			return
		}
		// Bodies that declare themselves over the byte bound are rejected
		// whole before any line is applied — a deterministic 413 regardless
		// of where the bound would have cut. MaxBytesReader remains the
		// backstop for chunked bodies with no declared length.
		if r.ContentLength > s.opt.IngestMaxBytes {
			s.writeError(w, r, fmt.Errorf("%w: declared body length %d exceeds %d bytes (nothing applied)",
				errTooLarge, r.ContentLength, s.opt.IngestMaxBytes))
			return
		}
		t0 := s.jr.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.opt.IngestMaxBytes)
		res, err := s.ingestBatch(newIngestScanner(r.Body))
		if s.jr.Enabled() {
			e := obs.Event{
				Type:      "ingest",
				Samples:   res.Accepted,
				Tenants:   res.Tenants,
				RequestID: RequestID(r.Context()),
				DurNanos:  s.jr.Now() - t0,
			}
			if err != nil {
				e.Err = err.Error()
			}
			s.jr.Emit(&e)
		}
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		writeJSON(w, res)
	})
}

// Ingest appends samples to a tenant's window without going through HTTP
// — the embedding and benchmark path. Samples with N == 0 default to
// N == 1; negative N is rejected. It returns how many samples were
// applied (all of them, unless validation fails first).
func (s *Server) Ingest(tenantID string, samples []core.Sample) (int, error) {
	if err := validateTenantID(tenantID); err != nil {
		return 0, err
	}
	for i, smp := range samples {
		if smp.N < 0 {
			return i, fmt.Errorf("%w: sample %d: n must be >= 1, got %d", errBadRequest, i, smp.N)
		}
		if smp.N == 0 {
			smp.N = 1
		}
		s.tenants.add(tenantID, smp)
	}
	s.m.ingestSamples.Add(uint64(len(samples)))
	return len(samples), nil
}
