//go:build !sonet_layers

package main

import (
	"fmt"
	"os"
	"os/exec"
)

// runTraced, in the build without the sonet_layers tag, rebuilds this
// package with the tag and hands the run over: only that build links the
// ladder, the traced relay and the counter readers, which import
// sonet/internal. The child prints the result itself, so the result
// returned here is nil.
func runTraced(_ *Workload, cfg RunConfig) (*Result, error) {
	cmd := exec.Command("go", append([]string{"run", "-tags", "sonet_layers", "."}, childArgs(cfg, cfg.Seed, 1)...)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("traced run (go run -tags sonet_layers): %w", err)
	}
	return nil, nil
}
