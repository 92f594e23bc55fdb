package telemetry

import (
	"io"
	"os"
	"os/exec"
	"strings"
)

// GitDescribe returns a best-effort build identifier (`git describe
// --always --dirty`) for Manifest.Build, or "" when git or the
// repository is unavailable. It shells out to the host, so it is
// CLI-only by convention: the simulation never calls it, and tests
// pin Build to a fixed value so goldens stay byte-identical across
// commits.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// WriteFile hands write the file at path ('-' is stdout) and reports
// the Close error of a file it created, so a truncated artifact never
// exits 0. CLI-only, like GitDescribe: every command writes its
// manifests, traces and aggregates through it.
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
