package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// machineRecord identifies the machine and the build a result came from.
type machineRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Clients    int    `json:"clients"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_revision"`
	GitDirty   string `json:"git_dirty"`
	SourceHash string `json:"source_sha256"`
}

// newRecord describes this machine and the source tree at root. The git
// fields read "none" outside a git work tree, so the source hash is the
// identity that always exists.
func newRecord(root string, workers, clients int) machineRecord {
	r := machineRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Clients:    clients,
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitRev:     "none",
		GitDirty:   "none",
		SourceHash: sourceHash(root),
	}
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		r.GitRev = strings.TrimSpace(out)
		if st, err := gitOutput(root, "status", "--porcelain", "--untracked-files=no"); err == nil {
			r.GitDirty = "false"
			if strings.TrimSpace(st) != "" {
				r.GitDirty = "true"
			}
		}
	}
	return r
}

func gitOutput(root string, args ...string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "", err
	}
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	out, err := cmd.Output()
	return string(out), err
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root (build
// output under .bench_build excluded), in path order.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
		io.WriteString(h, "\x00")
	}
	return hex.EncodeToString(h.Sum(nil))
}
