package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/knowledge"
	"repro/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/campaigns             submit a Spec        → 202 {id, state}
//	GET    /v1/campaigns             list campaigns       → 200 [State...]
//	GET    /v1/campaigns/{id}        one campaign         → 200 State (reports once done)
//	GET    /v1/campaigns/{id}/events live JSONL progress  → 200 application/jsonl stream
//	DELETE /v1/campaigns/{id}        cancel               → 200 State
//	GET    /v1/scheduler             fair-share snapshot  → 200 SchedulerInfo
//	GET    /v1/knowledge             cross-campaign base  → 200 {count, entries}
//
// A full queue rejects submissions with 429 and a Retry-After header;
// malformed specs get 400; unknown ids get 404.
//
// The mux also serves the operational endpoints (/metrics in OpenMetrics
// text format, /healthz liveness, /readyz backed by Service.Ready) so a
// single listener covers both the API and its probes.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/scheduler", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Scheduler())
	})
	mux.HandleFunc("GET /v1/knowledge", s.handleKnowledge)
	health := obs.NewHealth()
	health.Set("service", s.Ready)
	var reg *obs.Registry
	if s.rec != nil {
		reg = s.rec.Metrics
	}
	obs.RegisterOps(mux, reg, health)
	return mux
}

type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A field the spec does not have is refused, not dropped: a
	// misspelled budget would otherwise run under its default. So is
	// anything but white space after the spec, which would go unread.
	var spec Spec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the spec")
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("invalid spec: %v", err)})
		return
	}
	id, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Retry-After counts whole seconds: round a sub-second remainder
		// up, so a 500ms hint does not read as "retry at once".
		w.Header().Set("Retry-After", strconv.Itoa(int((s.RetryAfter()+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, httpError{Error: err.Error()})
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, httpError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": StateQueued})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

// handleKnowledge serves the merged cross-campaign knowledge base.
func (s *Service) handleKnowledge(w http.ResponseWriter, r *http.Request) {
	entries, err := s.Knowledge()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, httpError{Error: err.Error()})
		return
	}
	if entries == nil {
		entries = []knowledge.Entry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(entries),
		"entries": entries,
	})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st := s.Get(r.PathValue("id"))
	if st == nil {
		writeJSON(w, http.StatusNotFound, httpError{Error: "unknown campaign"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st := s.Cancel(r.PathValue("id"))
	if st == nil {
		writeJSON(w, http.StatusNotFound, httpError{Error: "unknown campaign"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents tails the campaign's events.jsonl, streaming every line
// as it is appended and returning once the campaign reaches a terminal
// state (or the client goes away). Works for queued campaigns too: the
// stream waits for the file to appear.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path := s.EventsPath(id)
	if path == "" {
		writeJSON(w, http.StatusNotFound, httpError{Error: "unknown campaign"})
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	buf := make([]byte, 64<<10)
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		// Sample the terminal flag BEFORE draining: the flow stops
		// appending before the campaign turns terminal, so a drain that
		// started after Done saw true cannot miss a tail write.
		done := s.Done(id)
		if f == nil {
			f, _ = os.Open(path) // appears when the campaign starts running
		}
		for f != nil {
			n, err := f.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
			if err != nil {
				break // EOF (or a read error): caught up for now
			}
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
