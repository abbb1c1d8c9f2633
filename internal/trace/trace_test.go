package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"virtover/internal/monitor"
	"virtover/internal/units"
)

func sampleSeries() [][]monitor.Measurement {
	mk := func(t float64, pm string, vmCPU float64) monitor.Measurement {
		return monitor.Measurement{
			Time: t,
			PM:   pm,
			VMs: map[string]units.Vector{
				"web": units.V(vmCPU, 120, 3, 400),
				"db":  units.V(vmCPU/2, 200, 9, 100),
			},
			Dom0:          units.V(18, 300, 0, 0),
			HypervisorCPU: 3.5,
			Host:          units.V(18+3.5+vmCPU+vmCPU/2, 620, 25, 510),
		}
	}
	return [][]monitor.Measurement{
		{mk(1, "pm1", 40), mk(1, "pm2", 10)},
		{mk(2, "pm1", 42), mk(2, "pm2", 12)},
	}
}

func TestRoundTrip(t *testing.T) {
	in := sampleSeries()
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("samples = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if len(out[i]) != len(in[i]) {
			t.Fatalf("sample %d PMs = %d, want %d", i, len(out[i]), len(in[i]))
		}
		for p := range in[i] {
			a, b := in[i][p], out[i][p]
			if a.PM != b.PM || a.Time != b.Time {
				t.Errorf("sample %d pm %d identity mismatch: %v vs %v", i, p, a.PM, b.PM)
			}
			if a.Dom0 != b.Dom0 {
				t.Errorf("Dom0 mismatch: %v vs %v", a.Dom0, b.Dom0)
			}
			if math.Abs(a.HypervisorCPU-b.HypervisorCPU) > 1e-12 {
				t.Errorf("hypervisor mismatch: %v vs %v", a.HypervisorCPU, b.HypervisorCPU)
			}
			if a.Host != b.Host {
				t.Errorf("host mismatch: %v vs %v", a.Host, b.Host)
			}
			for name, v := range a.VMs {
				if b.VMs[name] != v {
					t.Errorf("VM %s mismatch: %v vs %v", name, v, b.VMs[name])
				}
			}
		}
	}
}

func TestReadEmpty(t *testing.T) {
	out, err := Read(strings.NewReader(""))
	if err != nil || out != nil {
		t.Errorf("empty read = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestReadBadHeader(t *testing.T) {
	if _, err := Read(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("bad header should fail")
	}
}

func TestReadBadNumbers(t *testing.T) {
	csv := "time,pm,domain,cpu,mem,io,bw\nxx,pm1,web,1,2,3,4\n"
	if _, err := Read(strings.NewReader(csv)); err == nil {
		t.Error("bad time should fail")
	}
	csv2 := "time,pm,domain,cpu,mem,io,bw\n1,pm1,web,oops,2,3,4\n"
	if _, err := Read(strings.NewReader(csv2)); err == nil {
		t.Error("bad value should fail")
	}
	// NaN != NaN would open a new sample on every row.
	for _, bad := range []string{"NaN", "+Inf", "-Inf"} {
		csv3 := "time,pm,domain,cpu,mem,io,bw\n" + bad + ",pm1,vm1,1,2,3,4\n" + bad + ",pm1,host,1,2,3,4\n"
		if _, err := Read(strings.NewReader(csv3)); err == nil {
			t.Errorf("non-finite time %s should fail", bad)
		}
	}
}

func TestWriteDeterministicVMOrder(t *testing.T) {
	in := sampleSeries()
	var a, b bytes.Buffer
	if err := Write(&a, in); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, in); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Write must be deterministic across map iteration orders")
	}
	// db sorts before web.
	if !strings.Contains(a.String(), "1,pm1,db") {
		t.Errorf("expected sorted VM rows, got:\n%s", a.String())
	}
}

func TestPrecisionPreserved(t *testing.T) {
	in := [][]monitor.Measurement{{{
		Time: 0.5,
		PM:   "p",
		VMs:  map[string]units.Vector{"v": units.V(1.0/3, 2e-9, 12345.6789, 0.000125)},
		Dom0: units.V(16.8, 300, 0, 0),
		Host: units.V(20, 360, 18.8, 2.032),
	}}}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := out[0][0].VMs["v"]
	want := in[0][0].VMs["v"]
	if got != want {
		t.Errorf("precision lost: %v vs %v", got, want)
	}
}
