package experiments_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestTransferTraceGolden pins the rendered Figure 2 and device_read
// control-transfer traces, the text cmd/tables prints.
// Regenerate with: go test ./internal/experiments -run TestTransferTraceGolden -update-golden
func TestTransferTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		text func() string
	}{
		{"figure2.txt", func() string { return obs.TransferString(experiments.Figure2Trace()) }},
		{"device_read.txt", func() string { return obs.TransferString(experiments.DeviceReadTrace()) }},
	} {
		got := tc.text()
		path := filepath.Join("testdata", tc.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from golden:\ngot:\n%s\nwant:\n%s", path, got, want)
		}
	}
}
