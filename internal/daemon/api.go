package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
)

// The submission API, mounted at /api/v1/ beside the observability
// endpoints (obs.Server.Mount):
//
//	POST   /api/v1/campaigns                submit a Spec, returns {id, status}
//	GET    /api/v1/campaigns                list status documents
//	GET    /api/v1/campaigns/{id}           one status document + live progress
//	GET    /api/v1/campaigns/{id}/report    the byte-stable final report
//	GET    /api/v1/campaigns/{id}/eval      the ground-truth evaluation JSON
//	GET    /api/v1/campaigns/{id}/checkpoint the collect checkpoint (schema collect.CheckpointVersion)
//	DELETE /api/v1/campaigns/{id}           cancel (queued or running)
//
// Artifacts stream straight from the spool, so a GET observes exactly the
// bytes a restart would resume from. The campaign's record
// (<id>.state.json) is not served: the status document reads the same
// lifecycle state from memory.

// apiHandler builds the /api/v1/ mux.
func (d *Daemon) apiHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", d.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", d.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", d.handleStatus)
	mux.HandleFunc("DELETE /api/v1/campaigns/{id}", d.handleCancel)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report", d.artifactHandler(".report.txt", "text/plain; charset=utf-8"))
	mux.HandleFunc("GET /api/v1/campaigns/{id}/eval", d.artifactHandler(".eval.json", "application/json"))
	mux.HandleFunc("GET /api/v1/campaigns/{id}/checkpoint", d.artifactHandler(".checkpoint.json", "application/json"))
	return mux
}

// writeJSON renders v as the indented JSON response body. Encoding happens
// before the header is committed, so an encode failure still yields a 500.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// errorDoc is the API's error body.
type errorDoc struct {
	Error string `json:"error"`
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sp, err := ReadSpec(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrSpecTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorDoc{Error: err.Error()})
		return
	}
	id, err := d.Submit(sp)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrSpecTooLarge):
			code = http.StatusRequestEntityTooLarge
		case errors.Is(err, ErrNotAccepting):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrBudgetExhausted):
			code = http.StatusTooManyRequests
		}
		writeJSON(w, code, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}{ID: id, Status: stateQueued})
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Campaigns []StatusDoc `json:"campaigns"`
	}{Campaigns: d.List()})
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	doc, err := d.Status(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	status, err := d.Cancel(r.PathValue("id"))
	if err != nil {
		code := http.StatusConflict
		if errors.Is(err, ErrUnknownCampaign) {
			code = http.StatusNotFound
		}
		writeJSON(w, code, errorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}{ID: r.PathValue("id"), Status: status})
}

// artifactHandler streams a spool artifact for a known campaign. The file
// path is derived from the registered campaign ID, never from the request,
// so the spool directory is not traversable.
func (d *Daemon) artifactHandler(suffix, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cs := d.campaign(r.PathValue("id"))
		if cs == nil {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: ErrUnknownCampaign.Error()})
			return
		}
		data, err := os.ReadFile(d.sp.path(cs.ID + suffix))
		if err != nil {
			writeJSON(w, http.StatusNotFound, errorDoc{Error: "artifact not available"})
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(data)
	}
}
