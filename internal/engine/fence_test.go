package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"
	"testing"

	"wardrop/internal/dynamics"
	"wardrop/internal/flow"
	"wardrop/internal/policy"
	"wardrop/internal/topo"
)

// TestPhaseLoopFence pins one SHA-256 digest per (instance, engine path, run
// mode). A digest covers the bits of every Result field and of every
// PhaseInfo an observer sees, so any change to what a run computes, posts,
// counts, records or reports — in any engine's phase loop — changes it. The
// digests were captured from the per-engine phase loops that the shared
// dynamics driver replaced; the sim-dense shapes' digests were captured
// before the binomial sampler's squeeze and the per-agent engine's hoisted
// Poisson threshold, which must not change a bit.
func TestPhaseLoopFence(t *testing.T) {
	var mismatches []string
	for _, c := range fenceCases(t) {
		pol := mustReplicator(t, c.inst)
		for _, mode := range fenceModes {
			key := c.name + "/" + mode.name
			got := fenceDigest(t, c.inst, pol, c.engine, mode)
			if want := fenceDigests[key]; got != want {
				mismatches = append(mismatches, fmt.Sprintf("%q: %q,", key, got))
			}
		}
	}
	if len(mismatches) > 0 {
		sort.Strings(mismatches)
		t.Fatalf("%d of %d digests differ (got):\n%s", len(mismatches), len(fenceDigests), strings.Join(mismatches, "\n"))
	}
}

// fenceCase is one instance and engine path; its digest key is name plus
// the mode.
type fenceCase struct {
	name   string
	inst   *flow.Instance
	engine Engine
}

// fenceCases crosses every fence instance with every fence engine, then adds
// the stochastic shapes of the sim-dense workload: the count engine at ten
// million agents on the 252-path 6×6 grid, where most binomial draws have
// means far below one, and the per-agent engines at 10⁵ agents, 10⁵ Poisson
// draws per phase.
func fenceCases(t *testing.T) []fenceCase {
	t.Helper()
	braess, err := topo.Braess()
	if err != nil {
		t.Fatal(err)
	}
	mcp, err := topo.MultiCommodityParallel(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	grid3, err := topo.Grid(3)
	if err != nil {
		t.Fatal(err)
	}
	grid6, err := topo.Grid(6)
	if err != nil {
		t.Fatal(err)
	}
	var cases []fenceCase
	for _, inst := range []struct {
		name string
		inst *flow.Instance
	}{{"braess", braess}, {"mcp3x4", mcp}, {"grid3", grid3}} {
		for _, eng := range fenceEngines() {
			cases = append(cases, fenceCase{inst.name + "/" + eng.name, inst.inst, eng.engine})
		}
	}
	return append(cases,
		fenceCase{"grid6/count-1e7", grid6, Count{N: 10_000_000, Seed: 5}},
		fenceCase{"grid3/agents-1e5-w1", grid3, Agents{N: 100_000, Seed: 3, Workers: 1}},
		fenceCase{"grid3/agents-1e5-w2", grid3, Agents{N: 100_000, Seed: 3, Workers: 2}},
		fenceCase{"grid3/agents-1e5-event", grid3, Agents{N: 100_000, Seed: 3, Workers: 2, EventDriven: true}},
	)
}

type fenceEngine struct {
	name   string
	engine Engine
}

func fenceEngines() []fenceEngine {
	return []fenceEngine{
		{"fluid-euler", Fluid{Integrator: dynamics.Euler}},
		{"fluid-rk4", Fluid{Integrator: dynamics.RK4}},
		{"fluid-uniformization", Fluid{Integrator: dynamics.Uniformization}},
		{"fresh-euler", Fluid{Fresh: true, Integrator: dynamics.Euler, Step: 0.05}},
		{"fresh-rk4", Fluid{Fresh: true, Integrator: dynamics.RK4, Step: 0.05}},
		{"bestresponse", BestResponse{}},
		{"agents-w1", Agents{N: 400, Seed: 3, Workers: 1}},
		{"agents-w2", Agents{N: 400, Seed: 3, Workers: 2}},
		// The event clock ignores Workers, but the engine flattens the
		// shards in deal order, so the shard count fixes its agent order.
		{"agents-event", Agents{N: 400, Seed: 3, Workers: 2, EventDriven: true}},
		{"count", Count{N: 100000, Seed: 5}},
		{"hedge", hedgeEngine{eta: 0.5}},
	}
}

// hedgeEngine runs dynamics.RunHedge, which has no catalog engine, on a
// scenario. It passes only the run-shape fields HedgeConfig had before
// Hedge gained (δ,ε) accounting, so the accounting modes pin Hedge's
// unaccounted output.
type hedgeEngine struct{ eta float64 }

func (hedgeEngine) Name() string { return "hedge" }

func (e hedgeEngine) Run(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	return dynamics.RunHedge(ctx, sc.Instance, dynamics.HedgeConfig{
		Eta:          e.eta,
		UpdatePeriod: sc.UpdatePeriod,
		Horizon:      sc.Horizon,
		RunShape: dynamics.RunShape{
			RecordEvery: sc.RecordEvery,
			Observer:    opts.Observer,
			Workspace:   opts.Workspace,
		},
	}, sc.initialFlow())
}

// fenceMode is one run shape: the scenario fields it sets, and the phase at
// which its observer stops the run or cancels the context (-1: never).
type fenceMode struct {
	name             string
	horizon          float64
	recordEvery      int
	delta, eps       float64
	weak             bool
	streak           int
	stopAt, cancelAt int
}

var fenceModes = []fenceMode{
	{name: "plain", horizon: 4, recordEvery: 2, stopAt: -1, cancelAt: -1},
	{name: "accounting", horizon: 8, recordEvery: 1, delta: 0.3, eps: 0.3, streak: 3, stopAt: -1, cancelAt: -1},
	{name: "observer-stop", horizon: 4, stopAt: 5, cancelAt: -1},
	{name: "cancel", horizon: 4, stopAt: -1, cancelAt: 6},
	{name: "weak-fractional", horizon: 2.93, recordEvery: 3, delta: 0.2, eps: 0.1, weak: true, stopAt: -1, cancelAt: -1},
}

// fenceDigest runs one case through Run, with the given options after its
// observer, and hashes everything the run reported.
func fenceDigest(t *testing.T, inst *flow.Instance, pol policy.Policy, eng Engine, m fenceMode, opts ...RunOption) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := fenceHash{h: sha256.New()}
	obs := dynamics.ObserverFunc(func(info dynamics.PhaseInfo) bool {
		d.int(info.Index)
		d.float(info.Time)
		d.float(info.Potential)
		d.float(info.Unsatisfied)
		d.bool(info.AtEquilibrium)
		d.floats(info.Flow)
		d.floats(info.PathLatencies)
		if info.Index == m.cancelAt {
			cancel()
		}
		return info.Index == m.stopAt
	})
	res, err := Run(ctx, Scenario{
		Engine:                   eng,
		Instance:                 inst,
		Policy:                   pol,
		UpdatePeriod:             0.2,
		Horizon:                  m.horizon,
		Delta:                    m.delta,
		Eps:                      m.eps,
		Weak:                     m.weak,
		StopAfterSatisfiedStreak: m.streak,
		RecordEvery:              m.recordEvery,
	}, append([]RunOption{WithObserver(obs)}, opts...)...)
	switch {
	case err == nil:
		d.int(0)
	case IsCancellation(err):
		d.int(1)
	default:
		t.Fatalf("%s: %v", eng.Name(), err)
	}
	d.floats(res.Final)
	d.float(res.FinalPotential)
	d.float(res.Elapsed)
	d.int(res.Phases)
	d.int(res.UnsatisfiedPhases)
	d.bool(res.Stopped)
	d.int(len(res.Trajectory))
	for _, s := range res.Trajectory {
		d.float(s.Time)
		d.float(s.Potential)
		d.floats(s.Flow)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

type fenceHash struct{ h hash.Hash }

func (d fenceHash) int(n int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	d.h.Write(b[:])
}

func (d fenceHash) float(x float64) { d.int(int(math.Float64bits(x))) }

func (d fenceHash) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d fenceHash) floats(xs []float64) {
	d.int(len(xs))
	for _, x := range xs {
		d.float(x)
	}
}

// fenceDigests maps instance/engine/mode to the run's SHA-256 digest.
var fenceDigests = map[string]string{
	"braess/agents-event/accounting":              "e5bedb325d4fa5fee8317ae627bf17c827bf8a1fd810ae855101a0774b511728",
	"braess/agents-event/cancel":                  "632c1b6bb795cea560b5f5bcaa286276747fd67ca55094dff1430930ab0b1ecd",
	"braess/agents-event/observer-stop":           "06930b1c78ec9ba88ec35b4477a3820cbb34cb718c5aa3a2a4f7a16cde59e202",
	"braess/agents-event/plain":                   "c062b4525a154e776968b2ad97ca19de6c5b64aa8c2c8f7ff6841008e641a99a",
	"braess/agents-event/weak-fractional":         "db285aebe26250b049c99376736bc657230e61716b657f229733e37670d49a22",
	"braess/agents-w1/accounting":                 "4f6fb2a8e826d3776d4ef2a2d53eddf123d280b3da189b3aad29725019e8c4ff",
	"braess/agents-w1/cancel":                     "6d545b4c9aeb4a45229f3f2b0cf6ffe751ddf7c8ef4d52bfccf321be1d4a6bbb",
	"braess/agents-w1/observer-stop":              "6ad903da22356973ba6ec5e31528a261d35f63444f146779e050a8eee3c7686d",
	"braess/agents-w1/plain":                      "3f236e227ac545a7e1e4a983667a925e808e3b3e8657510119d34b184d67561a",
	"braess/agents-w1/weak-fractional":            "3684e21f97979991df8687c09eabdd672105c19f19471ebecda252ee03633d10",
	"braess/agents-w2/accounting":                 "c041b490ae699975f27d36df3a048c3636a5eca50935252107f04f76c71bfebe",
	"braess/agents-w2/cancel":                     "d057b312f2513a7ea02f65b4bcd755d9807db4e3e8cbe52f349c4d06785eb606",
	"braess/agents-w2/observer-stop":              "2f4f8ed1a1ccdd34dcdaa8860ea589ea75750d3433a30dcb4347f8b58ce4e764",
	"braess/agents-w2/plain":                      "61324b4e26e18466d6a5508cf0ed32e56320f2790e1047ecac0b611d6331f97d",
	"braess/agents-w2/weak-fractional":            "b026bbb4c7510b93aed8d8f05e49fe5e15d69bebace7e254bb01a1d1202d4ea7",
	"braess/bestresponse/accounting":              "716da376ba889c2dfc6c7a34066e77e00c674e9d56a4b5d2a68ddf4f5875eac8",
	"braess/bestresponse/cancel":                  "7ef11228df7b67c58aa30bc4259833eabad02d5654052c7b8ff37896923f8bcd",
	"braess/bestresponse/observer-stop":           "774912c3b4cf90891bdfbe45af65d0416d0a4e537986b8dda3391cec2eea1916",
	"braess/bestresponse/plain":                   "e2d7547e9d50dc315c783c6f1069e0d0397e81f883b9183c1ab12da255ef516c",
	"braess/bestresponse/weak-fractional":         "8fab1fe69bb33529b1089a9e6cd88af02561adf840d3465aa7055c6ffa8e8182",
	"braess/count/accounting":                     "91ce9237e4957cc84ac194bdf175f53a5fe9840a8f8ad017e5175ef570c33c9e",
	"braess/count/cancel":                         "4713dd8e760ef36a56fe542ce70dc71478e416cbc7ddb6138f8dc6d3b907f61d",
	"braess/count/observer-stop":                  "9b372b7fce45002cbcf8a9fd0f22ef272236958d99da639325371f8bbed205ce",
	"braess/count/plain":                          "573739c467298b125d67a54104af12141e4639e7d6cc0485e7ef0bc9247a2af8",
	"braess/count/weak-fractional":                "7ee982a6760dbfa98abf1dbbd8d86a6b766967f7e808a05b1b137fd3ec2a330f",
	"braess/fluid-euler/accounting":               "125f1a6dce443a55c662403e86518ab42186ec1ba3360804a82e6402a3b7d290",
	"braess/fluid-euler/cancel":                   "c0c160cc3f686d82e64b7221e6a6e3823c94cd0cbacfc3b50d10a013d9ebbf3c",
	"braess/fluid-euler/observer-stop":            "c5051c62a30b3f491936f909f0f69f12aff176774e73e5c51a2546503bbc6803",
	"braess/fluid-euler/plain":                    "31a92a6d10367f4ce9c4625f9c19c91212b1923de6706bda44bd6a93269a03d8",
	"braess/fluid-euler/weak-fractional":          "dc4e03aa0d82b4f456de25b9ea521d76921ec7ae84f236e96dedfb7911b0bab4",
	"braess/fluid-rk4/accounting":                 "8fa9f425d521c3078f573227f6d6358c2a74c1129986d54d5f5e39e4276c49bb",
	"braess/fluid-rk4/cancel":                     "9ebfe55c1a8626f0921a7c43df14c1f80cf8e280173adc3a6ff2df4b629020cf",
	"braess/fluid-rk4/observer-stop":              "af1596ee9e47bd14a39c8dcd033a7ae032ad907dd5f0d5a9d81550e659d0be79",
	"braess/fluid-rk4/plain":                      "0439414b4784c180859dd027d918d87a57c3711c44187725537f8d16ba42a019",
	"braess/fluid-rk4/weak-fractional":            "84cc9541250e0247fc5d8f4043fbad014c9c92a1fb5cab6160e45ee7987f0d3b",
	"braess/fluid-uniformization/accounting":      "3995abb8439cc0d70e15a87f98b5611c760dce5055143329918c193908d33d42",
	"braess/fluid-uniformization/cancel":          "bdc1490d848fbfb5e0ffd5b82123c251f04383c655a8dd69e7f46562987a9580",
	"braess/fluid-uniformization/observer-stop":   "1fa742871a41b29e3188153c1672c1c1c16101b6515af7262d034dc108e334f3",
	"braess/fluid-uniformization/plain":           "158672294b3738bf458153bfb3874d3b672e047af828363441856d3172457b8a",
	"braess/fluid-uniformization/weak-fractional": "3c2a1ea0eb849874ba46f60fba100c7d324ef046d11d2084e37163e045aa1a20",
	"braess/fresh-euler/accounting":               "f343270ee5c11738ada64988d4c3851f044d3f6bf248ac3be1bdc2b05dfea5a8",
	"braess/fresh-euler/cancel":                   "dcbf4bb84aed59895389a03f9ef4edfd0c1af0bfc746dcd67917cd7887ee69e8",
	"braess/fresh-euler/observer-stop":            "443e5f5f8edc8e0914e9e7a883ecf3f619fbcadbda547982356385a579f04c84",
	"braess/fresh-euler/plain":                    "7672a8649df43792bd5ea59ae01fdc1d3bd7b96ad2cf57e194da78dabdabe483",
	"braess/fresh-euler/weak-fractional":          "18958ca297105be65d6abc57c5717cfdd8cb794936d426174cf8b508675b898a",
	"braess/fresh-rk4/accounting":                 "987e82b78c90c2b4f5a244aa975f22f931510d630eb6d2881b83f2d36c8627ec",
	"braess/fresh-rk4/cancel":                     "7e1b249c54407f1c453a2979c835fbeab0a1ba55830912f232b28e4d7f5b4782",
	"braess/fresh-rk4/observer-stop":              "0ff0afc73a1d45bb5bed7c555cdd68f752283ea4dc7233a1a9c7b1a9822d5f66",
	"braess/fresh-rk4/plain":                      "9e1bea1513b54d4ae8da176553825998d1d332397e711813d3051b8427c7ad74",
	"braess/fresh-rk4/weak-fractional":            "f524237058dd626c215fa885e7753a547e11b89fbebaf26144b598a3f05c6528",
	"braess/hedge/accounting":                     "eeba3a4992dddd4ce372f0618f14e3d606991c63d681894fb822d12111cb824d",
	"braess/hedge/cancel":                         "a0f13ad22bb8c04ae58864a7b01462cf26686b6c021ab680d57e637607071628",
	"braess/hedge/observer-stop":                  "2c2a683d4baa9bdf06e86ead2c3aaf0a9139f15261d155fea085698bf69d2782",
	"braess/hedge/plain":                          "7da0138c8553298f3995edfd66e964207948b88091d8fcb88d7153c393377667",
	"braess/hedge/weak-fractional":                "704494356e48ac4c5d874db707714555f8d7fcabddf08537aec12aca5848cd8f",
	"grid3/agents-1e5-event/accounting":           "752c682edb4287a80b1ca5fd5574c364208639a2ac3a31f1862a1b216249418b",
	"grid3/agents-1e5-event/cancel":               "4347b01c5bc779aa92a857c345b69dbe3eba5b563259827426c34507ee6d269c",
	"grid3/agents-1e5-event/observer-stop":        "a79849a25e903953f511738d67d5206c056bb9b72955e54365255c884d1a7c39",
	"grid3/agents-1e5-event/plain":                "1153be8a3a053f35880a2e8459249d57d9a4bf885d747ffa9aa340578f1dba4b",
	"grid3/agents-1e5-event/weak-fractional":      "ca99199c44641b7e29ad4964c5da054e7f636a19734728327cdb68d440a3d214",
	"grid3/agents-1e5-w1/accounting":              "72685ad2597184439b7040ccc63c04ca1592f5e9713d02f7ebade708ceaa45ef",
	"grid3/agents-1e5-w1/cancel":                  "0d6cad1997903ce4996d090588739c73fa1fa047ff858b04a3e69833568d7369",
	"grid3/agents-1e5-w1/observer-stop":           "6ad56df425eb2b97428e7b8180d9cc83dab64634ead53fe02dc521c4fb3c9fd1",
	"grid3/agents-1e5-w1/plain":                   "e4603cd53f2fd095d76127b3f3133ae2f95b60c5fddc013848436e4be786f98c",
	"grid3/agents-1e5-w1/weak-fractional":         "be5c07930ba6851bcb6b6fef72d6644ce38cc95969a830442cb0737a1e38a5ea",
	"grid3/agents-1e5-w2/accounting":              "d031ef6454176ef932cfb0616a7e62aaef7fd66ff5175887f67260ebf5cf8952",
	"grid3/agents-1e5-w2/cancel":                  "9ebb1270e2af34308e2f25d19e6b19cf79881877db919998673f4eabe4b226a7",
	"grid3/agents-1e5-w2/observer-stop":           "0b962241720792cdacf2ae581917872318da8ef07165c056209ab835ebebb37a",
	"grid3/agents-1e5-w2/plain":                   "42894581ce9ab0340b91228a440d4efa80150219a72632c3793798b3d5c7658a",
	"grid3/agents-1e5-w2/weak-fractional":         "0226b5b6ce12ecff78aaa1424fbc418bbd956d202ddf274055e8828e09ec18d9",
	"grid3/agents-event/accounting":               "4ec9f03301fc4ef9a8b5c233e3c765520b529bae39b88ddb85d39fc4f8b9374c",
	"grid3/agents-event/cancel":                   "c6e611b52235be90e2f7e090bc7695fed1856c30173859f68b45452ff46ad2f7",
	"grid3/agents-event/observer-stop":            "ccca22036944c188976454d0c0ba465749dfbef5ab0b0da936c8898ecc9aa0d4",
	"grid3/agents-event/plain":                    "30f62ca925dc6dcf7523054091f19af728a55a78945e950f8936c47d9ca1b4be",
	"grid3/agents-event/weak-fractional":          "65c999cf1a132fc07a245e3e98e9fad76c264933f8b76f3295fd623f105b9c23",
	"grid3/agents-w1/accounting":                  "6427d78793359b9e75293e07867edc5f5a4a743515f5b668b3f9fb8d59cd0559",
	"grid3/agents-w1/cancel":                      "89c27346551e9d9076c5dc74ec854dece41ddce737a0ddee3e2279184b91be2c",
	"grid3/agents-w1/observer-stop":               "a79a82a59955cea4c7a713f4e4a19e847c62118b575e9eca543c3f6e2c6e5a76",
	"grid3/agents-w1/plain":                       "81f91897496c4a767e0a1687d795cbe124976de2da758dce885a092a38287414",
	"grid3/agents-w1/weak-fractional":             "9851e731b0d72bb0a5c36f01ecca0ced2c4300d1ab5bb3850875ff7ca499d603",
	"grid3/agents-w2/accounting":                  "ab5d5d0ffdecee0a7ac3e5db93ff51494999c04eaf0ab1017b7696dacdf68f78",
	"grid3/agents-w2/cancel":                      "e64ef3d6eb0890e050b14eb964aee965895084172879dbae00e33da5030ff582",
	"grid3/agents-w2/observer-stop":               "dda73c4de733de620dd88b7c47219a7870bb788a70e45aeedd9f17b0af465a30",
	"grid3/agents-w2/plain":                       "13901c5f851aaa6b509d9b292a2f34e46eed71cf3cfdf57bf28ffe2d4352bcfa",
	"grid3/agents-w2/weak-fractional":             "56018451d075f140de64033217610c014e1273548e268b2bbf57c9ab1b0ce1db",
	"grid3/bestresponse/accounting":               "2a5df3c02a26d98b4550be64c3a0c317ee8345e8b118ef41b22ecc71a1bb5b28",
	"grid3/bestresponse/cancel":                   "a7e014dc833f708e39c59adc96d7a47aed1b26a1c4f698754806db0fd6fec303",
	"grid3/bestresponse/observer-stop":            "a5c66437af6e9dddf52fe8defd5fc2177554bd8f5e12100b11553432d7de0ca8",
	"grid3/bestresponse/plain":                    "3ea5291adc612c9d8e4151bf1f9e49486fc26fff728e215ed1f5aa3864079703",
	"grid3/bestresponse/weak-fractional":          "bd56772b37348beaa5b92d79364dafc433ec367e23084cb7261449d384d8aba2",
	"grid3/count/accounting":                      "6746710cb6a0fcb22b42f6ab0ea4a5eb5128909fe76a5b57128d2dd7cb404e03",
	"grid3/count/cancel":                          "efe478b4d59f114284aa8e6340db839fe80b03d5e339198c1d3dbb78c13be7ff",
	"grid3/count/observer-stop":                   "70ddd410bb17a9c739224e5552284021a26d59a7aa5aa68d9abd2875859676f3",
	"grid3/count/plain":                           "418d53ef66ae131877204e566ef93ed74da00c461be8dd6c9db88c2030c350bb",
	"grid3/count/weak-fractional":                 "8e5f088d4a8e65dd9c6bc1f76e3f1296db808970758b059984088f44398975b3",
	"grid3/fluid-euler/accounting":                "82ca33b483fc592729560eb3844d2471f982a50194a5145a725b17eb93117e19",
	"grid3/fluid-euler/cancel":                    "3c91bf72f74d1ac848e3077158c454795a5d1974a128d4af3d6b11d37a6282e0",
	"grid3/fluid-euler/observer-stop":             "7e088622d6d5a42a2a175c699d6e2ff1116cc2d15e04d37459765aa9cf214a7a",
	"grid3/fluid-euler/plain":                     "15f0dc8e683daf204038636d475da8eca48e28d6b25cb922302f287cbe54b671",
	"grid3/fluid-euler/weak-fractional":           "a63e400bc42e39774d9f26766ce0b69c4b7b4bdbfd5bb17287d3fb6266f61683",
	"grid3/fluid-rk4/accounting":                  "1ec495aa1808342d5f54452a8200c1d238e59d10959406fc0c79a491b0ee0d7a",
	"grid3/fluid-rk4/cancel":                      "d82201f1be141db120bcaa0115ec178143860cb810fe9ff0debd6be20fd0ba3f",
	"grid3/fluid-rk4/observer-stop":               "f177df0ef957c8b19dce1e720e3279006457dd7646e8d43c7ed8f1a02e6e3f26",
	"grid3/fluid-rk4/plain":                       "89c80d6c67b7c15ec15e5eeb1ff6518fc42734bb71b85567e6849a37c38dccf3",
	"grid3/fluid-rk4/weak-fractional":             "014a39c232fe6a213cbb092aeb5664c92293cae20acf0a36a69f6c547313ca74",
	"grid3/fluid-uniformization/accounting":       "93325746dfc9d31cee0d2999e831358116589af75b2cbcfb121cd1da88d25b55",
	"grid3/fluid-uniformization/cancel":           "da93c0496162daa6840dda4c84390eef24064b98305ae1d2c1c59c53c1346d20",
	"grid3/fluid-uniformization/observer-stop":    "d08c2e1650b03492e09ee2b0aa374fdb0ce0a685de011744b6e4d6aa2b2c013b",
	"grid3/fluid-uniformization/plain":            "db99fbb53ea0f2500fc5d8da4d6bd500f72e2c1b954279c88909b548d10ab5e1",
	"grid3/fluid-uniformization/weak-fractional":  "534466b0425cfd282dfca73badfed0246cc5bbbf0ae4288e181cde06a7fe0bb1",
	"grid3/fresh-euler/accounting":                "b60b54e883da17ec95656b93a778bafb38f0ca2cb4308b6196d2437150c20e4a",
	"grid3/fresh-euler/cancel":                    "17935b4a960a040b36c1b4c57e0b8d1ff3ef2b01432276246c55568cc3b8d470",
	"grid3/fresh-euler/observer-stop":             "2702d116f32ae4b8268ad523ed679511a01a1951a5dafe3152d84e2d53cdd853",
	"grid3/fresh-euler/plain":                     "dacc3fd6bfc424c094dec4d3ae954d59f40cfedcc0979459c6ebd108f81a0fd5",
	"grid3/fresh-euler/weak-fractional":           "e6ebfd0907022a284dd3b6c97ff17c450488a63fc20f601a60c2598fd930f120",
	"grid3/fresh-rk4/accounting":                  "4acfd3b24060c026fd3b3720235f47fc6d284fd52e4e5166ac352764af4b7d86",
	"grid3/fresh-rk4/cancel":                      "d094fb98921299100f083544b97ecd783fb8dae419f48953d83a08604a5adfb0",
	"grid3/fresh-rk4/observer-stop":               "1ffaa8a6f943b1935cd9fe9976edc25db2ce9efeb7b52fa1eb9b223c7b941984",
	"grid3/fresh-rk4/plain":                       "050387221b5104d890f35d9a001190b01564505b62f0444646492b0d7db04900",
	"grid3/fresh-rk4/weak-fractional":             "f22baee7c545a7b69b1734fd4a880eaa065e587bc1b4d573778c0729c7c2cd38",
	"grid3/hedge/accounting":                      "462c444cff77977953d802c1d90a76d42dfab15f79305af864942fce42d7514d",
	"grid3/hedge/cancel":                          "47bc48112fb328da070f62df169f4764b511a5ee529209889d28ba6bc757b8d1",
	"grid3/hedge/observer-stop":                   "1d98caf690e65176cec4adee407f771aa4d6045a92fe0e7c496217119733754f",
	"grid3/hedge/plain":                           "396265718ba5af6bd58d886ec0213fc0246e6ce5ec8c2910fcf98b704235c48c",
	"grid3/hedge/weak-fractional":                 "f411d3ce803d98b953114d6a0cd67e2512a1c8a56d843f5e773e3c8714881a29",
	"grid6/count-1e7/accounting":                  "f8218ad9fc6b46787105d264b35f7d372c0b17417109489ff30b2a0e02236e69",
	"grid6/count-1e7/cancel":                      "844d643db87a8b076a4a6ea53e07851f80b3e950c23c2bbe0b65c8ad3e8a73ef",
	"grid6/count-1e7/observer-stop":               "f8b4e19f35107ba5e9935d213d06fbe4dbe9f5ea11b044bfd05810e626524626",
	"grid6/count-1e7/plain":                       "ed39539004b73ac28840a5d106dcbd1578758d2d89749a3ac444e734afdf3371",
	"grid6/count-1e7/weak-fractional":             "47a2febe06ae201f87e9a7e4a746d022aef4bc23d69f0d5f72e3d713d36739ae",
	"mcp3x4/agents-event/accounting":              "d1ebc280971f0d468bf4672d9b49b79d4bffe8fad04a53823126399da12be936",
	"mcp3x4/agents-event/cancel":                  "20712a00e76ca729e348ed995fe37a3f0d872c2a53f82cf0033dad860e92f756",
	"mcp3x4/agents-event/observer-stop":           "e098e92e0b351f8583be70c011a4b381f85489c2df5b2d615d9bd9368ad73e0e",
	"mcp3x4/agents-event/plain":                   "7510c3b537e6d4136395ba5c64b96197e827697a84f1dc497879b3292c4e8c52",
	"mcp3x4/agents-event/weak-fractional":         "d9d45305362a83492dd930e013f8e08613aa84cdbd42b7da1ccef3deb4efb35c",
	"mcp3x4/agents-w1/accounting":                 "4f580dedaa784ee6dde0f19cbace68b293c9738965b4e34347ecffd0bda554d4",
	"mcp3x4/agents-w1/cancel":                     "e7e510d931fc391ca3f3df422b3780b8be7a3fbe1577637a622e0ba439ac62c0",
	"mcp3x4/agents-w1/observer-stop":              "42c8af46be8ca014b71186d522d9942baf36ec7b08b690342374bcc143a22565",
	"mcp3x4/agents-w1/plain":                      "a21574a23dc1db661df7bcd3239e39e964f14e46ecd504dd0e7d7e1bbe333461",
	"mcp3x4/agents-w1/weak-fractional":            "366f7b0937aaa5372686943f392f4171dd9744737a7ae9db1c673149db341ddd",
	"mcp3x4/agents-w2/accounting":                 "515f21e31ec1bc91a23d7b6a28e20cf57d28bdc294c74466db8b5c36774513c0",
	"mcp3x4/agents-w2/cancel":                     "a90fffd9140b70931ae071aa0c947076869603b664c586f1cdf47c0c82beea0d",
	"mcp3x4/agents-w2/observer-stop":              "f6d71ac6b03b23363bda0536c1dc3343bbbf47ccefb22469c0e4a212a514013d",
	"mcp3x4/agents-w2/plain":                      "686f05f9e51b32d40366e0eea7597af4351a177a516fd632aae5b679c36b9aed",
	"mcp3x4/agents-w2/weak-fractional":            "9a92ec3d997c5e9ffe010826ee1b33fbf0b379c12ed9cfa9f6365e4d35c2246b",
	"mcp3x4/bestresponse/accounting":              "a3aef05926c87381e53fc427b26d013b08e27742942b7b0e01fab859851dcf3b",
	"mcp3x4/bestresponse/cancel":                  "8f490a546b06fde84dcc1d86aaceecc899706299387434d136a37fa585faf88b",
	"mcp3x4/bestresponse/observer-stop":           "3f1e57b1c6fbd7c9e6e273f57cf558bca687bbeb90124a4220b470ee8939d4a9",
	"mcp3x4/bestresponse/plain":                   "74a7184258548970b9d7f16478045fba5d549a8bea70bc6a276c62b4d8d024a6",
	"mcp3x4/bestresponse/weak-fractional":         "85c5a3af21cc7821d0641d630cd483040af371b8c7c7ac3abc09470d12af33b2",
	"mcp3x4/count/accounting":                     "8b999c04d2d2a9920c0f23cbfe5e8bd5de6747963804ed52681b7f282c74a47b",
	"mcp3x4/count/cancel":                         "9c4277f1d480aa7240cf720a5c6343d184ce10ab06d1f296d9bb708a6263d295",
	"mcp3x4/count/observer-stop":                  "cb47521526dffb23daf11ea2a5ac66c2b1a0e027c6ea74e57873ca3bec79b276",
	"mcp3x4/count/plain":                          "77db9fcc08c28ecd2b01e9c374715db07812331963aaf23735dee05f5c2a10e7",
	"mcp3x4/count/weak-fractional":                "c971879bfab0e7c1efe4ba1e473df8506958ac26f4208bc422c5e7f642fa0157",
	"mcp3x4/fluid-euler/accounting":               "3267eb7d28a7a4d47b78b3e4717967de266b45fad8b5627b156a261f21cef275",
	"mcp3x4/fluid-euler/cancel":                   "767469a98550a14b79c39a2f3fe634c6b063ca71f641f5e2fb9a3c2650dba453",
	"mcp3x4/fluid-euler/observer-stop":            "bde776491e7eb72f1290cb2d4e6f42a3dc74eb70e5db5a8ee0bfa041c62a78a0",
	"mcp3x4/fluid-euler/plain":                    "555ba315263cf0f0bc25daa8c7ce1b6e2c72dfc7fd8b2a2f5e27407dc065af90",
	"mcp3x4/fluid-euler/weak-fractional":          "4de6f04b6105ae8f80a36bbb93be1bb98267f76e253dde9d66f1b15a4e41c92c",
	"mcp3x4/fluid-rk4/accounting":                 "53ed3f4eb60a221e5b322aeb45af040d45ee18d4ed760f34717174fa31ea30e0",
	"mcp3x4/fluid-rk4/cancel":                     "b73fc337fec25a91bbd856f488de3f8ae9444bb0479a0f1ada03053787108b26",
	"mcp3x4/fluid-rk4/observer-stop":              "3ee828f2ea572efacec2fd816a2a3f6a9b4c988547b5b17360ff34939aff167a",
	"mcp3x4/fluid-rk4/plain":                      "e93f3f3b7d22bcd4e627fc111818977ae9508d6050c7a68527e6492efb2f86bb",
	"mcp3x4/fluid-rk4/weak-fractional":            "216ea90ccc0b63da42c15d27e180238ed38550170e9d59d747bd4de2c751f9b7",
	"mcp3x4/fluid-uniformization/accounting":      "7970d96a6e97ef5d75280bf51858098c73ac4a69e4ea89faeaa85ba8b6645e53",
	"mcp3x4/fluid-uniformization/cancel":          "e84c68695d24e25ef49ec3f4900e7fa4287e162fdde35706ddad464b42bc66db",
	"mcp3x4/fluid-uniformization/observer-stop":   "030739803809fcf5fdbd76c28ede1eeec49dd2974094a90a6fd654e14e6b883f",
	"mcp3x4/fluid-uniformization/plain":           "b87f7185b891a8c737a933ae7332536049de65fb473f527ab96cf52dce1b86ca",
	"mcp3x4/fluid-uniformization/weak-fractional": "441885b4eed326f7ea6297f8df1b9e4f68b9b9b12a57447fa7334e51cc4921b4",
	"mcp3x4/fresh-euler/accounting":               "9cd4cc365ddb6195f739239480b12fefe590e85a09557ecc062f63854cf01823",
	"mcp3x4/fresh-euler/cancel":                   "b5cc48d7b42d1ba52f9b868ffb9d48d4f4d5b829a2c3f98c18a09d9ad843907b",
	"mcp3x4/fresh-euler/observer-stop":            "31d14d227077d8eeaae3cd98d2880069301dbbc3b53ca4521e817360b3d90443",
	"mcp3x4/fresh-euler/plain":                    "3db6d96a77ddceedfb592395eb94350d05b5636a19004a175e5c1a113c7e08fd",
	"mcp3x4/fresh-euler/weak-fractional":          "231ca65c6ff2b973111db3614b734e53c37245a6fa17b71d1440db2a88ab2450",
	"mcp3x4/fresh-rk4/accounting":                 "2beb4809e0cb306c225317fb477b427c04193c07ddcefdd90dc6bddfd5e2acfa",
	"mcp3x4/fresh-rk4/cancel":                     "08673e202b335e81001531cfbd0c6ad67b1f464c2919042e3716312f98cadc06",
	"mcp3x4/fresh-rk4/observer-stop":              "dbf4f6820dfc8f147e9ec37e8ac82bbb66de182a71dcad16b41e6248d034d9e3",
	"mcp3x4/fresh-rk4/plain":                      "a6c508a38dbb57669ae010a08023197796093f63b909e8b036859caa6929aff3",
	"mcp3x4/fresh-rk4/weak-fractional":            "07e58348a3a90aae1adf8cf751a3b9f6e0d5bf756e8461faf250bf3919de2e02",
	"mcp3x4/hedge/accounting":                     "b936616eecdf3ceda543c24da9922c74d459c892c7d6db273c441810ab4096d0",
	"mcp3x4/hedge/cancel":                         "29299051756ba5c2386044d2af2765b1c4d342de4be25dcaaee3a0b4fa6dd66c",
	"mcp3x4/hedge/observer-stop":                  "51ed5f9c169ddc5508171d9484ac00017f65df1f44769c1b83116d14176e9b7c",
	"mcp3x4/hedge/plain":                          "4f69619e0178540ffe3505d2c5e59a6aa26df587e075becfbac8ec5d049ce8a7",
	"mcp3x4/hedge/weak-fractional":                "c0450e55c542dae1ccab180b9f679cc4b853392d594a5ad0d54c325db42773b8",
}
