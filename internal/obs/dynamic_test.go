package obs_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tracenet/internal/collect"
	"tracenet/internal/obs"
)

// TestMountComposesAPI: a handler mounted beside the built-in endpoints
// serves on the same mux — the tracenetd composition point.
func TestMountComposesAPI(t *testing.T) {
	srv := obs.NewServer(nil, nil)
	srv.Mount("/api/v1/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "api %s", r.URL.Path)
	}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts.URL, "/api/v1/campaigns"); code != http.StatusOK || body != "api /api/v1/campaigns" {
		t.Errorf("mounted handler = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL, "/healthz"); code != http.StatusOK {
		t.Errorf("built-in endpoint lost after Mount: %d", code)
	}
}

// TestReadyzCheckSource: every source is consulted on every request, in
// registration order, and the verdicts of the checks it yields govern
// readiness.
func TestReadyzCheckSource(t *testing.T) {
	srv := obs.NewServer(nil, nil)
	static := []obs.Check{{Name: "static", Probe: func() error { return nil }}}
	srv.AddCheckSource(func() []obs.Check { return static })
	var mu sync.Mutex
	var dynamic []obs.Check
	srv.AddCheckSource(func() []obs.Check {
		mu.Lock()
		defer mu.Unlock()
		return append([]obs.Check(nil), dynamic...)
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL, "/readyz")
	if code != http.StatusOK || !strings.Contains(body, "ok static") {
		t.Fatalf("/readyz with empty source = %d:\n%s", code, body)
	}

	mu.Lock()
	dynamic = []obs.Check{
		{Name: "campaign-stall c0001", Probe: func() error { return nil }},
		{Name: "spool-replay", Probe: func() error { return errors.New("replaying 3 specs") }},
	}
	mu.Unlock()
	code, body = get(t, ts.URL, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with failing dynamic check = %d, want 503:\n%s", code, body)
	}
	for _, want := range []string{"ok static", "ok campaign-stall c0001",
		"fail spool-replay: replaying 3 specs", "not ready"} {
		if !strings.Contains(body, want) {
			t.Errorf("/readyz lacks %q:\n%s", want, body)
		}
	}

	// The source is re-consulted per request: dropping the failing check
	// restores readiness without re-registration.
	mu.Lock()
	dynamic = dynamic[:1]
	mu.Unlock()
	if code, _ = get(t, ts.URL, "/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after source recovered = %d, want 200", code)
	}
}

// TestCampaignsSource: campaigns render by source registration order, then
// in each source's order, with their IDs.
func TestCampaignsSource(t *testing.T) {
	srv := obs.NewServer(nil, nil)
	static := []obs.CampaignEntry{{Name: "static", Prog: collect.NewProgress()}}
	srv.AddCampaignSource(func() []obs.CampaignEntry { return static })
	var mu sync.Mutex
	var entries []obs.CampaignEntry
	srv.AddCampaignSource(func() []obs.CampaignEntry {
		mu.Lock()
		defer mu.Unlock()
		return append([]obs.CampaignEntry(nil), entries...)
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL, "/campaigns")
	if code != http.StatusOK || !strings.Contains(body, `"name": "static"`) {
		t.Fatalf("/campaigns with empty source = %d:\n%s", code, body)
	}

	mu.Lock()
	entries = []obs.CampaignEntry{
		{Name: "c0001", Prog: collect.NewProgress()},
		{Name: "c0002", Prog: collect.NewProgress()},
	}
	mu.Unlock()
	_, body = get(t, ts.URL, "/campaigns")
	iStatic := strings.Index(body, `"name": "static"`)
	i1 := strings.Index(body, `"name": "c0001"`)
	i2 := strings.Index(body, `"name": "c0002"`)
	if iStatic < 0 || i1 < 0 || i2 < 0 || !(iStatic < i1 && i1 < i2) {
		t.Errorf("/campaigns ordering wrong (static=%d c0001=%d c0002=%d):\n%s",
			iStatic, i1, i2, body)
	}
}
