package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"virtover/internal/core"
)

// FuzzIngestLine holds ingestBatch's line decoding to the partial-accept
// contract on arbitrary bodies: it never panics; Accepted equals the
// number of leading non-blank lines that decode and validate on their own
// (each line ingested alone); an error is returned exactly when a
// non-blank line is rejected; and each window holds exactly its tenant's
// samples from the accepted prefix, so nothing after the first rejected
// line reaches one. The committed corpus under testdata/fuzz/ is replayed
// by plain go test.
func FuzzIngestLine(f *testing.F) {
	f.Add([]byte(`{"tenant":"a","vmSum":{"cpu":10,"mem":64,"io":5,"bw":50},"dom0CPU":2,"hypCPU":1,"pm":{"cpu":20,"mem":100,"io":8,"bw":60}}`))
	f.Add([]byte("{\"tenant\":\"a\"}\n\n{\"tenant\":\"b\",\"n\":3}\r\n{\"tenant\":\"a\",\"bogus\":1}\n{\"tenant\":\"c\"}\n"))
	f.Add([]byte("{\"tenant\":\"a\"} {\"tenant\":\"b\"}\n{\"tenant\":\"c\"}"))
	f.Add([]byte("{\"tenant\":\"a\",\"version\":2}\n{\"tenant\":\"a/b\"}\n{\"tenant\":\"a\",\"n\":-1}"))

	// The window is small so a fuzzed body that floods one tenant still
	// exercises the ring; the other bounds are far beyond any input.
	opt := Options{Workers: 1, Queue: 1, Window: 4, MaxTenants: 1 << 20, IngestMaxLines: 1 << 20, RefitInterval: -1}
	oracle, err := NewServer(opt)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = oracle.Shutdown(context.Background()) })

	f.Fuzz(func(t *testing.T, body []byte) {
		want := map[string][]core.Sample{} // accepted samples per tenant
		accepted, rejected := 0, false
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			res, err := oracle.ingestBatch(newIngestScanner(bytes.NewReader(line)))
			if err != nil {
				rejected = true
				break
			}
			if res.Accepted != 1 {
				t.Fatalf("line %q alone: accepted %d without an error, want 1", line, res.Accepted)
			}
			var l ingestLine
			if err := json.Unmarshal(line, &l); err != nil {
				t.Fatalf("accepted line %q does not unmarshal: %v", line, err)
			}
			want[l.Tenant] = append(want[l.Tenant], l.sample())
			accepted++
		}

		s, err := NewServer(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = s.Shutdown(context.Background()) }()
		res, err := s.ingestBatch(newIngestScanner(bytes.NewReader(body)))
		if res.Accepted != accepted {
			t.Fatalf("accepted %d, want %d (err %v)", res.Accepted, accepted, err)
		}
		if (err != nil) != rejected {
			t.Fatalf("err = %v, want an error: %v", err, rejected)
		}
		if res.Tenants != len(want) || s.tenants.count() != len(want) {
			t.Fatalf("tenants: response %d, registry %d, want %d", res.Tenants, s.tenants.count(), len(want))
		}
		// Each window holds exactly the newest of its tenant's accepted
		// samples: a sample from past the rejected line would show even
		// in a full ring.
		for id, samples := range want {
			tn := s.tenants.get(id)
			if tn == nil {
				t.Fatalf("tenant %q has no window", id)
			}
			tn.mu.Lock()
			got := tn.win.snapshot(nil)
			tn.mu.Unlock()
			if tail := samples[max(0, len(samples)-opt.Window):]; !slices.Equal(got, tail) {
				t.Fatalf("tenant %q window %v, want %v", id, got, tail)
			}
		}
	})
}
