package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// The golden corpus pins every engine path to its exact output. Each spec
// under testdata/golden/ is held to its store key (the spec's identity)
// and to the SHA-256 of its marshalled Outcome (the engine's result, bit
// for bit). A refactor that keeps both is behavior-preserving; a change
// that moves one must say so by editing the pin by hand — the failure
// message prints the value it got.
var goldenCorpus = []struct {
	name string
	// build, when set, is the experiments builder the corpus file was
	// taken from: it must still produce the pinned key.
	build  func() scenario.Spec
	key    string
	digest string
}{
	{
		name:   "single-full",
		key:    "19c43b0599537d7e1fa5228e088a30c34e8d46c4e01d434ca1c72d0b1cf354f8",
		digest: "231e929e9b0ac0e3dfbf4f654d5af4388a88814bf5900a9920e3bf6f1e8b8a61",
	},
	{
		name:   "single-record-warm",
		key:    "90c3d14fd046462083f061ccb5b38e25e6bbf92bc7ad4e8da3af67d61c4ecd66",
		digest: "5ee99449d49b2776fc8fb1f62ec66825583b7a7d7e7a7958f1f8b0e0ee853329",
	},
	{
		name:   "single-faultchain",
		key:    "426fe591e51ec567a43d54bf59cc90875502ce1604c1175b25d71b1be778e383",
		digest: "4b05a9bce5b99c5c6f4765c9d6b990f4cac3025e1260ed15abed545756227219",
	},
	{
		name:   "batch-five-solutions",
		key:    "aceabb6899ac20f2b37a9c82e6132958d872451df55601949fb7903ad71691d4",
		digest: "04a340553487b5c66509c8d915b91d69c127192ebd087224bc929572c0997e65",
	},
	{
		name:   "batch-mixed-tick",
		key:    "7ef06ed0dc7aafeb2ac9442599dbeb4c3a06990d0ef208485d5ed327328b890f",
		digest: "7b45171210bafd544241f554169fb27125ee77aa7e076e4f57eaaa6ba0f5d9ab",
	},
	{
		name:   "batch-every-fault",
		key:    "beaf4a0e5bfa4d84eb9d83205795548e3b037d8dc2d9a958907e71d5674559ef",
		digest: "2d088e45d85d4d3957549fc5168fa47778c0d50d3ac0eb531677a7f2af3ec628",
	},
	{
		name:   "batch-voting",
		key:    "a57d723aaa0f81bb0bf7d55d2266b8c1cd7827bb671b88b4804b2fb272cb5032",
		digest: "bd4a98d5f94c7905e566ec977016d3db0462fb4b5f5a639fe14cb5cb883e6aa5",
	},
	{
		name:   "lockstep-controllers",
		key:    "92ed090e240c66ca0d3632b742639d79dcf3f017935304ea671522dcaa8ba260",
		digest: "492e139582cc9e9e7553f8edd5af15d301ccd7c1e77cf7fa889eda077a7af40d",
	},
	{
		name:   "fleet-generated",
		key:    "ac2944296f23326627eb70c437966d004f86045b48576f3d5797057daf74d5b8",
		digest: "639bca9c8d85fad436998cb02571394f38d255b876add84ff66d5adba8d8de17",
	},
	{
		name:   "fleet-segment",
		key:    "40ffc4e60c281afa6abf50b5067d19401e37d80478fd6dada1afca3ff2821571",
		digest: "5a3263d64fe47f33bfb6b52fc3000986d1540a3f56d168a928924c4d957bfe2e",
	},
	{
		name:   "fleet-voting-segment",
		key:    "e9d8b84a0b328015f5b0521cae5ae019474373b00bf4bb4317362f918bf84687",
		digest: "dd55ab5b610a8aabd36abf0fc4e0266a3628202a2beef2ed098baa6acd77858d",
	},
	{
		name:   "fleetcoord-generated",
		key:    "98080f039eaa1941492730d94b794a0bf5cc44885332bd46a215813185ce8ed4",
		digest: "491a20b56b80763508839d7ffb76d6db785d3743df3b423576196f6643268a74",
	},
	{
		name:   "fleetcoord-segment",
		key:    "52849320867a89b22cebbf3a4c3054ad1a04df5be69bc6b98bfdf65fd549e2dc",
		digest: "140d47eed4a637f7bafbf84a61a67013af5b0aa80a4cc4ac4c996b8de82eccf3",
	},
	{
		name:   "multicore-coordinated",
		key:    "c030c6f258eda1399e19cb08057d04700717b20b14a09a3ac4d0ad095b485d9d",
		digest: "e96a55dc77ee284154644361629db3d02ec7b113c6646f270c39ccc3b3c59842",
	},
	{
		name:   "multicore-uncoordinated",
		key:    "cc31f92c7e12965bc63fe2b6bd462468d45a00043f7498864e8aa6a0ff5b0c25",
		digest: "833c37edfe9cca060d8974e4c083406685a2756978539b425179bc8f0e647034",
	},
	{
		name:   "faultsweep-job-dropout",
		key:    "0ccd21c0eb175ddcf5343c795bd1b67e06d881d798d3693b25308c2215ea4162",
		digest: "544954b71fd7e7bdafa5ff668ebcdfa1ac85f8fe6c284925ba5b9f526adc06de",
	},
	{
		name:   "faultsweep-fleetcoord-segment-voting",
		key:    "bc4dc142434072dff7631ff6e19a179019c5b8ed0fff43402468d6a766578f4e",
		digest: "bf103ac055fa134b0c12d5e67893b565d383a6429f607e872aa284dc5b395c59",
	},
	{
		name:   "exp-table3",
		key:    "bba8666fdb81520630dcacfd855f12e885416a45fd4291c5e045a67575d637a2",
		digest: "66e98ad93bdde9c437d3ce8c5fefeca0d79265894668b9a65cb6dbae27bc9af1",
		build: func() scenario.Spec {
			tc := experiments.DefaultTable3()
			tc.Duration = 1200
			return experiments.Table3Spec(tc)
		},
	},
	{
		name:   "exp-fig3",
		key:    "9a77cb359f14e888780958fab70fed9235162ddc69797de4afeef90433b013ba",
		digest: "cd7e05e7037a35252a4d5c1148aef7a4f74c92736970fbed63cbebe635ad4254",
		build: func() scenario.Spec {
			return experiments.Fig3Spec(experiments.Fig3Config{RefTemp: 68, Period: 400, Cycles: 1})
		},
	},
	{
		name:   "exp-faults",
		key:    "7ba19c7519c86e2f54d13581ca5a698184c53ca9601509ac1d7fc9157532d456",
		digest: "b646eb286ae1856cd527fb2bf8734518866efea0456367462e16b7eba721e7c6",
		build: func() scenario.Spec {
			fc := experiments.DefaultFaults()
			fc.Duration, fc.StuckAt, fc.StuckLen = 900, 300, 120
			return experiments.FaultsSpec(fc)
		},
	},
	{
		name:   "exp-fig5",
		key:    "6f9460d25c8b17cdef8156541fef41dc0eca3cb2a33f591ce6e1be486b2c66f0",
		digest: "bbce7d944440ea1404da4f18ed20d5f2de8228d79d2fb1ff9acec23d90f7ef7a",
		build: func() scenario.Spec {
			fc := experiments.DefaultFig5()
			fc.Duration = 900
			return experiments.Fig5Spec(fc)
		},
	},
}

// loadGoldenSpec reads one corpus spec, rejecting unknown fields so a
// renamed JSON tag cannot silently drop part of the scenario.
func loadGoldenSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s scenario.Spec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s
}

func specKey(t *testing.T, s scenario.Spec) string {
	t.Helper()
	key, err := scenario.Key(s)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestGoldenOutcomes runs the whole corpus at Workers 1, 2 and 4: every
// run must reproduce the pinned key and outcome digest.
func TestGoldenOutcomes(t *testing.T) {
	for _, g := range goldenCorpus {
		t.Run(g.name, func(t *testing.T) {
			s := loadGoldenSpec(t, g.name)
			if key := specKey(t, s); key != g.key {
				t.Errorf("key = %q, want %q", key, g.key)
			}
			if g.build != nil {
				if key := specKey(t, g.build()); key != g.key {
					t.Errorf("builder key = %q, want %q", key, g.key)
				}
			}
			for _, workers := range []int{1, 2, 4} {
				s.Workers = workers
				out, err := scenario.Run(s)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				b, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if digest := hex.EncodeToString(sum[:]); digest != g.digest {
					t.Errorf("workers=%d: digest = %q, want %q", workers, digest, g.digest)
				}
			}
		})
	}
}
