package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// env is the environment block printed with every result.
type env struct {
	Commit     string `json:"commit"` // git HEAD, else a hash of the source tree
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	DataFS     string `json:"dataFS"` // filesystem type under the data directory
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func environment(dataDir string) env {
	return env{
		Commit:     sourceID(*srcRoot),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		DataFS:     fsType(dataDir),
		Workload:   *workload,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *traceOn,
	}
}

// sourceID names the code under test: the git commit when root is a
// work tree, otherwise "tree:" plus a SHA-256 over every Go source and
// go.mod below root (a benchmark checkout carries no .git).
func sourceID(root string) string {
	if root == "" {
		return "unknown"
	}
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		r, symbolic := strings.CutPrefix(ref, "ref: ")
		if !symbolic {
			return ref // detached HEAD
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
			return strings.TrimSpace(string(id))
		}
		// A packed ref: fall back to hashing the tree.
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh)
			fh.Close()
		}
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType returns the type of the filesystem holding dir, from the
// longest matching mount point in /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fl := strings.Fields(sc.Text())
		if len(fl) < 3 {
			continue
		}
		mp := fl[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, fl[2]
		}
	}
	return typ
}
