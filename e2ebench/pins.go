package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// pins.json holds the output digests of the current code: each pool
// seed's report digest (Figure 7-9 blocks compared as a set) and each
// fleet seed's trace SHA-256 after simPinSteps steps, at paper and tiny
// size. Regenerate it with `go run . -pin > pins.json` when a change is
// meant to move the output, and say why in the change.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	Report     map[string]string `json:"report-paper"`
	ReportTiny map[string]string `json:"report-tiny"`
	Sim        map[string]string `json:"sim-datacenter"`
	SimTiny    map[string]string `json:"sim-tiny"`
}

var pins = func() pinFile {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic(fmt.Sprintf("pins.json: %v", err))
	}
	return p
}()

// Pool sizes. Reports need one unused seed per run in a measured loop;
// fleets need one seed per run.
const (
	reportPoolSize     = 48
	reportPoolSizeTiny = 8
	simPoolSize        = 16
	simPoolSizeTiny    = 4
)

func seqPool(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func reportPool(tiny bool) []int64 {
	if tiny {
		return seqPool(reportPoolSizeTiny)
	}
	return seqPool(reportPoolSize)
}

func simPool(tiny bool) []int64 {
	if tiny {
		return seqPool(simPoolSizeTiny)
	}
	return seqPool(simPoolSize)
}

func reportPin(tiny bool, seed int64) string {
	if tiny {
		return pins.ReportTiny[strconv.FormatInt(seed, 10)]
	}
	return pins.Report[strconv.FormatInt(seed, 10)]
}

func simPin(tiny bool, seed int64) string {
	if tiny {
		return pins.SimTiny[strconv.FormatInt(seed, 10)]
	}
	return pins.Sim[strconv.FormatInt(seed, 10)]
}

// printPins computes every pin from the current code and prints the
// pins.json document.
func printPins(w io.Writer) error {
	var p pinFile
	for _, tiny := range []bool{false, true} {
		b := newBench(0, 0, tiny, io.Discard)
		reports := map[string]string{}
		for _, seed := range reportPool(tiny) {
			r, err := runOneReport(b, seed)
			if err != nil {
				return err
			}
			reports[strconv.FormatInt(seed, 10)] = r.digest
		}
		fleets := map[string]string{}
		for _, seed := range simPool(tiny) {
			f, err := newFleet(b, seed)
			if err != nil {
				return err
			}
			for f.steps < simPinSteps(b) {
				f.step()
			}
			d, err := f.digest()
			f.close()
			if err != nil {
				return err
			}
			fleets[strconv.FormatInt(seed, 10)] = d
		}
		if tiny {
			p.ReportTiny, p.SimTiny = reports, fleets
		} else {
			p.Report, p.Sim = reports, fleets
		}
	}
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
