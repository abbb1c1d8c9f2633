package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzLoadModel: LoadModel never panics, and every model it accepts
// survives a SaveModel -> LoadModel round trip with the same coefficients
// (to the bit) and the same HasO.
func FuzzLoadModel(f *testing.F) {
	save := func(m *Model) []byte {
		var buf bytes.Buffer
		if err := SaveModel(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := save(&Model{A: driftRows(1)})
	f.Add(plain)
	f.Add(save(&Model{A: driftRows(1), O: driftRows(0.5), HasO: true}))
	f.Add(bytes.Replace(plain, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	rows := func(n int) map[string][]float64 {
		out := map[string][]float64{}
		for _, tg := range Targets()[:n] {
			out[tg.String()] = []float64{1, 2, 3, 4, 5}
		}
		return out
	}
	four, err := json.Marshal(modelJSON{Version: modelVersion, A: rows(NumTargets - 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(four)
	short := rows(NumTargets)
	short[TargetPMBW.String()] = short[TargetPMBW.String()][:4]
	shortRow, err := json.Marshal(modelJSON{Version: modelVersion, A: short})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shortRow)

	f.Fuzz(func(t *testing.T, in []byte) {
		first, err := LoadModel(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveModel(&buf, first); err != nil {
			t.Fatalf("SaveModel of an accepted model: %v", err)
		}
		second, err := LoadModel(&buf)
		if err != nil {
			t.Fatalf("re-LoadModel of a saved model: %v\n%s", err, buf.Bytes())
		}
		if second.HasO != first.HasO {
			t.Fatalf("round trip HasO = %v, want %v", second.HasO, first.HasO)
		}
		for _, tg := range Targets() {
			for j := range first.A[tg] {
				if math.Float64bits(second.A[tg][j]) != math.Float64bits(first.A[tg][j]) ||
					math.Float64bits(second.O[tg][j]) != math.Float64bits(first.O[tg][j]) {
					t.Fatalf("%v coefficient %d: round trip a=%v o=%v, want a=%v o=%v",
						tg, j, second.A[tg][j], second.O[tg][j], first.A[tg][j], first.O[tg][j])
				}
			}
		}
	})
}
