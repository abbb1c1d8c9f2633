package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"virtover/internal/obs"
)

// TestRequestIDHeader: every response carries X-Request-ID; a
// client-supplied ID is echoed back unchanged.
func TestRequestIDHeader(t *testing.T) {
	s := mustServer(t, Options{Workers: 1, Queue: 1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-ID")
	if minted == "" {
		t.Fatal("response missing X-Request-ID")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/models", nil)
	req.Header.Set("X-Request-ID", "client-abc-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-1" {
		t.Fatalf("client-supplied request ID echoed as %q, want client-abc-1", got)
	}
	if got := resp.Header.Get("X-Request-ID"); got == minted {
		t.Fatalf("second request reused ID %q", got)
	}
}

// TestServeJournalEvents: a journaled server emits one "serve" event per
// request whose req field matches the X-Request-ID response header — the
// join key between a client's records and the run journal — and the fit
// route's events carry the cache disposition.
func TestServeJournalEvents(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf,
		obs.WithJournalClock(func() int64 { return 0 }),
		obs.WithAllocProbe(func() int64 { return 0 }))
	s := mustServer(t, Options{Workers: 2, Queue: 4, Journal: j})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/fit", fitSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit answered %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("fit response missing X-Request-ID")
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/fit", fitSpec)
	id2 := resp2.Header.Get("X-Request-ID")

	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var miss, hit string
	for _, line := range lines {
		if !strings.Contains(line, `"type":"serve"`) {
			continue
		}
		switch {
		case strings.Contains(line, `"req":"`+id+`"`):
			miss = line
		case strings.Contains(line, `"req":"`+id2+`"`):
			hit = line
		}
	}
	if miss == "" || hit == "" {
		t.Fatalf("journal lacks serve events joinable by request ID:\n%s", buf.String())
	}
	for _, want := range []string{`"name":"/v1/fit"`, `"method":"POST"`, `"status":200`, `"cache":"miss"`} {
		if !strings.Contains(miss, want) {
			t.Errorf("first fit event %q missing %s", miss, want)
		}
	}
	if !strings.Contains(hit, `"cache":"hit"`) {
		t.Errorf("second fit event %q not marked a cache hit", hit)
	}
	// The fit itself journaled too (exps wires the process default), but
	// the serve-level event must exist regardless; a "fork"-style scenario
	// build would add its own events on the same stream.
	if !strings.Contains(buf.String(), `"type":"fit"`) {
		// The model fit runs through exps.FitModelContext, which only
		// journals via the process-default journal — not Options.Journal.
		// That is intentional: cmd/servd installs the same journal both
		// places. No failure here.
		t.Log("no fit event on the serve journal (process default not installed) — expected in-package")
	}
}

// TestServeJournalErrorStatus: failed requests journal their error status.
func TestServeJournalErrorStatus(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf,
		obs.WithJournalClock(func() int64 { return 0 }),
		obs.WithAllocProbe(func() int64 { return 0 }))
	s := mustServer(t, Options{Workers: 1, Queue: 1, Journal: j})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/fit", `{"seed": 1, "method": "nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad method answered %d, want 400", resp.StatusCode)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"status":400`) {
		t.Fatalf("journal lacks the 400 status:\n%s", buf.String())
	}
}
