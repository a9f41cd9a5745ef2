package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpec fuzzes the HTTP trust boundary: arbitrary bytes decoded the
// way iobfleetd's handlers decode a submission (unknown fields refused).
// Any spec Normalize accepts must stay canonical under a second
// Normalize (the sidecar persists the normalized spec and a restart
// must re-derive the identical sweep), must Build, and must yield a
// telemetry Meta that marshals — a store header cannot carry a NaN.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		// Specs the daemon's tests submit.
		`{"wearers":6000,"seed":3,"dur_seconds":30,"workers":2,"ble_frac":0.5,"block_size":64}`,
		`{"wearers":6000,"seed":4,"dur_seconds":30,"workers":2,"ble_frac":1,"cells":16,"block_size":64}`,
		`{"wearers":0,"dur_seconds":5}`,
		`{"wearers":50,"dur_seconds":5,"max_iters":3}`,
		`{"wearers":50,"dur_seconds":5,"unknown_knob":1}`,
		`{"wearers":50,"dur_seconds":5,"cells":4,"density":10}`,
		`{"wearers":60,"seed":7,"dur_seconds":5,"cells":4,"feedback":true,"ble_frac":0.5,"block_size":8}`,
		`{"wearers":8,"seed":1,"dur_seconds":1,"cells":4}`,
		`{"wearers":120,"seed":12,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"feedback":true,"max_iters":64,"tol_ppm":200,"block_size":16,"shards":3}`,
		`{"wearers":120,"seed":15,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"feedback":true,"max_iters":64,"tol_ppm":200,"series_seconds":2,"block_size":16}`,
		`{"wearers":6000,"seed":23,"dur_seconds":30,"workers":2,"ble_frac":0.5,"cells":16,"series_seconds":10,"block_size":64,"shards":3}`,
		// A density spec and a full-range end, both rewritten by Normalize.
		`{"wearers":1000,"seed":1,"dur_seconds":60,"density":2.5,"end_wearer":1000}`,
		// A shard sub-spec as a coordinator dispatches it.
		`{"wearers":8,"seed":1,"dur_seconds":1,"cells":2,"feedback":true,"first_wearer":4,` +
			`"label":"s000001/shard1","seed_store_url":"http://127.0.0.1:9370/api/sweeps/s000001/shards/1/store",` +
			`"presolved":{"loads":[{"cell":0,"ppm":5}],"eq":{"table":[{"cell":0,"ppm":7}],"iters":[{"cell":0,"iters":3}],"own":[1,2,3,4]}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if err := spec.Normalize(); err != nil {
			return
		}
		again := spec
		if err := again.Normalize(); err != nil {
			t.Fatalf("normalized spec fails a second Normalize: %v\n%+v", err, spec)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("Normalize is not idempotent:\n first  %+v\n second %+v", spec, again)
		}
		_, meta, err := spec.Build()
		if err != nil {
			t.Fatalf("normalized spec fails Build: %v\n%+v", err, spec)
		}
		if _, err := json.Marshal(meta); err != nil {
			t.Fatalf("meta does not marshal: %v\n%+v", err, meta)
		}
	})
}
