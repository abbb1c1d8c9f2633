package trace

import (
	"bytes"
	"os"
	"testing"
)

// FuzzRead: Read never panics, and every series it accepts survives a
// Write -> Read round trip with the same samples and the same PMs, in the
// same order, per sample.
func FuzzRead(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden_trace.csv")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	f.Add(bytes.Join(lines[:12], nil))
	f.Add([]byte("time,pm,domain,cpu,mem,io,bw\n1,pm1,vm1,1,2\n"))
	f.Add([]byte("time,pm,domain,cpu,mem,io,bw\n1,pm1,vm1,1,2.5e,3,4\n"))
	f.Add([]byte("time,pm,domain,cpu,mem,io,bw\nNaN,pm1,vm1,1,2,3,4\nNaN,pm1,host,1,2,3,4\n"))

	f.Fuzz(func(t *testing.T, in []byte) {
		first, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, first); err != nil {
			t.Fatalf("Write of an accepted trace: %v", err)
		}
		second, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-Read of a written trace: %v\n%q", err, buf.Bytes())
		}
		if len(second) != len(first) {
			t.Fatalf("round trip has %d samples, want %d\n%q", len(second), len(first), buf.Bytes())
		}
		for i := range first {
			if len(second[i]) != len(first[i]) {
				t.Fatalf("sample %d: round trip has %d PMs, want %d", i, len(second[i]), len(first[i]))
			}
			for j := range first[i] {
				if got, want := second[i][j].PM, first[i][j].PM; got != want {
					t.Fatalf("sample %d PM %d: round trip name %q, want %q", i, j, got, want)
				}
			}
		}
	})
}
