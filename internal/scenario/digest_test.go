package scenario

import (
	"hash/fnv"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tracex"
)

// scenarioDigests pins every named scenario (each core object × each legacy
// pattern, seed 1, traced): FNV-64a of the span model's text rendering and
// of the run report's JSON. The casts behind these runs are declared in
// internal/registry, so any change to a job's name, CPU, priority, slot,
// release or op script moves a digest here.
//
// The report digest is taken with every OpTime digest zeroed (the report's
// and each process's): op-time recording is instrumentation that charges no
// virtual time, and whether a driver records it is not part of the cast.
var scenarioDigests = map[string][2]uint64{
	"multihash/burst":    {0xb67be7d45c7d8c43, 0xdf0f4ad10590241f},
	"multihash/none":     {0xba067c9905e30545, 0x2b3a2d06c520dda0},
	"multihash/stagger":  {0x31cf5f5b6a354c27, 0xb7843a94e8bc18ae},
	"multilist/burst":    {0xe528de22936f16e8, 0x20fb65ae029dfbd6},
	"multilist/none":     {0x8408875110eb3576, 0x67425bcfa5731910},
	"multilist/stagger":  {0x8b897505e60634d4, 0x555b67af561b6025},
	"multimwcas/burst":   {0xed244db4970e6e53, 0xd9b9669a8cbb88ae},
	"multimwcas/none":    {0x61f88adcc1400e08, 0x1e75066ded7a17f0},
	"multimwcas/stagger": {0xa07ab14a9c3ea521, 0x7009cce2615f6612},
	"multiqueue/burst":   {0xcbb04f26daf82a09, 0xdb9b87e24e51bfad},
	"multiqueue/none":    {0x86cafcdfdf2c1c35, 0x331f123b905fb337},
	"multiqueue/stagger": {0xc60514477d7a296, 0xb3ec00cb9f7699da},
	"multistack/burst":   {0xe97b1b7bab9e2394, 0xf1aceda1d23e93a5},
	"multistack/none":    {0x50ec921edc7dfe5a, 0x62d952821d76ae1c},
	"multistack/stagger": {0x1632873910f9b414, 0x548524cbd17b6268},
	"unihash/burst":      {0xe27bd887fa2fc080, 0x6bf4ac41c0d5405d},
	"unihash/none":       {0xdd383e6fb38849a, 0x1e81617b991a78f8},
	"unihash/stagger":    {0xd86aa037a9cd8a6d, 0x2311845d03a0075},
	"unilist/burst":      {0x5872d39c10ec12bc, 0x11a66e7d882aa7a1},
	"unilist/none":       {0xb5b3042283bbdc81, 0xc3e0ec5634a17183},
	"unilist/stagger":    {0xbdb456ce3d9ebf65, 0xe5070b2b02a4c811},
	"unimwcas/burst":     {0xebdfa96fc125edc4, 0xfea51a8c2a19ae04},
	"unimwcas/none":      {0x2f18b63c68c983ff, 0xf869af5e6ce2f433},
	"unimwcas/stagger":   {0x4510feec02d8c169, 0xa45d1a0b26c754a3},
	"uniqueue/burst":     {0xd7ccaad04b667e26, 0xd3c2fe1a4e993685},
	"uniqueue/none":      {0x45c6da3c82586ab, 0x468d20b0fdea3cc6},
	"uniqueue/stagger":   {0xd09dbafbb0e37a4c, 0xdaa7eeb6895f5d7b},
	"unistack/burst":     {0xf8af9f837c6f3a97, 0xf0085d4ac15755f9},
	"unistack/none":      {0x3e3266ffac13d81e, 0xef11430f7a6ce52b},
	"unistack/stagger":   {0x3c72ed068d89c72d, 0x150c4f383131133d},
}

func reportDigestJSON(t *testing.T, r *metrics.Report) []byte {
	t.Helper()
	r.OpTime = metrics.Summary{}
	for i := range r.Procs {
		r.Procs[i].OpTime = metrics.Summary{}
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestScenarioDigests runs all 30 scenarios and compares each against its
// pinned pair of digests.
func TestScenarioDigests(t *testing.T) {
	n := 0
	for _, object := range Objects() {
		for _, pat := range Patterns() {
			s, err := Run(Config{Object: object, Seed: 1, Pattern: pat, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			got := [2]uint64{
				fnv64([]byte(tracex.Build(s.Trace()).Text())),
				fnv64(reportDigestJSON(t, s.Report(object))),
			}
			key := object + "/" + pat
			if want, ok := scenarioDigests[key]; !ok || got != want {
				t.Errorf("%s: digests {trace %#x, report %#x}, want %#x", key, got[0], got[1], want)
			}
			n++
		}
	}
	if n != len(scenarioDigests) {
		t.Errorf("ran %d scenarios, pinned %d", n, len(scenarioDigests))
	}
}
