package icfgpatch_test

// The golden image hashes pin the rewriter's output bytes to committed
// values. The differential tests compare our rewrite paths with one
// another, so a change that alters every path the same way passes them;
// this table catches it. A mismatch prints the whole recomputed table:
// when an output change is intended, review why and paste it over
// goldenImageHashes.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// goldenCase is one rewrite of the golden matrix.
type goldenCase struct {
	key  string
	prog *workload.Program
	opts core.Options
	// guided derives a profile from the analysis and requires the plan
	// to assign at least one variant body.
	guided bool
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		var progs []*workload.Program
		for _, pie := range []bool{false, true} {
			suite, err := workload.SPECSuiteCached(a, pie)
			if err != nil {
				t.Fatalf("%s suite (pie=%v): %v", a, pie, err)
			}
			if pie {
				progs = append(progs, suite[0])
			} else {
				progs = append(progs, suite[:3]...)
			}
		}
		for i, prog := range progs {
			reqs := []struct {
				name   string
				req    instrument.Request
				verify bool
			}{
				{"block-empty-verify", blockEmpty(), true},
				{"block-counter", blockCounter(), false},
				{"func-counter-subset", instrument.Request{
					Where:   instrument.FuncEntry,
					Payload: instrument.PayloadCounter,
					Funcs:   workload.DiogenesTargets(prog, 4),
				}, false},
			}
			pie := ""
			if i == 3 {
				pie = "-pie"
			}
			for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
				for _, r := range reqs {
					cases = append(cases, goldenCase{
						key:  fmt.Sprintf("%s/%s%s/%s/%s", a, prog.Profile.Name, pie, mode, r.name),
						prog: prog,
						opts: core.Options{Mode: mode, Request: r.req, Verify: r.verify},
					})
				}
			}
		}
	}
	libxul, err := workload.LibxulCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	docker, err := workload.DockerCFICached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.SPECSuiteCached(arch.X64, false)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases,
		goldenCase{key: "x64/libxul/jt/block-counter", prog: libxul,
			opts: core.Options{Mode: core.ModeJT, Request: blockCounter()}},
		goldenCase{key: "x64/docker-cfi/func-ptr/block-empty", prog: docker,
			opts: core.Options{Mode: core.ModeFuncPtr, Request: blockEmpty()}},
		goldenCase{key: "x64/" + spec[0].Profile.Name + "/jt/block-counter-guided", prog: spec[0],
			opts: core.Options{Mode: core.ModeJT, Request: blockCounter()}, guided: true},
	)
}

// goldenHash rewrites one case and returns the sha256 of the marshalled
// image, or "refused" when the mode soundly refuses the binary.
func goldenHash(t *testing.T, c goldenCase) string {
	t.Helper()
	opts := c.opts
	if c.guided {
		an, err := core.Analyze(c.prog.Binary, core.AnalysisConfig{Mode: opts.Mode})
		if err != nil {
			t.Fatalf("%s: analyze: %v", c.key, err)
		}
		opts.Profile = fuzzHeatProfile(an, 2, 1) // one dominant function
	}
	res, err := core.Rewrite(c.prog.Binary, opts)
	if errors.Is(err, core.ErrImpreciseFuncPtrs) {
		return "refused"
	}
	if err != nil {
		t.Fatalf("%s: rewrite: %v", c.key, err)
	}
	if c.guided && res.Stats.VariantFuncs == 0 {
		t.Fatalf("%s: profile-guided rewrite assigned no variant bodies", c.key)
	}
	sum := sha256.Sum256(marshalAndRecycle(res))
	return hex.EncodeToString(sum[:])
}

// TestGoldenImageHashes rewrites the golden matrix and compares every
// output image's sha256 with the committed table.
func TestGoldenImageHashes(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases(t) {
		if _, dup := got[c.key]; dup {
			t.Fatalf("duplicate golden key %s", c.key)
		}
		got[c.key] = goldenHash(t, c)
	}
	bad := 0
	for k, h := range got {
		if want, ok := goldenImageHashes[k]; !ok || want != h {
			t.Errorf("%s: sha256 %s, committed %q", k, h, want)
			bad++
		}
	}
	for k := range goldenImageHashes {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: committed but no longer in the matrix", k)
			bad++
		}
	}
	if bad == 0 {
		return
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("var goldenImageHashes = map[string]string{\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
	}
	sb.WriteString("}\n")
	t.Logf("%d of %d golden hashes differ; recomputed table:\n%s", bad, len(got), sb.String())
}

var goldenImageHashes = map[string]string{
	"a64/600.perlbench_s-pie/dir/block-counter":            "9229186d21f384fb66798683d596765ccfdbfa09c3ac6ae6515820d60cb330b0",
	"a64/600.perlbench_s-pie/dir/block-empty-verify":       "8bf43ec54fafb88f2b7b951057bc9047a94e3eebf8cea32709ea63a0473e6a8d",
	"a64/600.perlbench_s-pie/dir/func-counter-subset":      "b72fa0cfc76c03869e8a8d4fb78857e77321b48a22e2c16b1d1c5a8ca89e3c49",
	"a64/600.perlbench_s-pie/func-ptr/block-counter":       "7505d4c89c7f908d54ce60c6525f27daa38f9f745453f2ba33680ec54e2816c1",
	"a64/600.perlbench_s-pie/func-ptr/block-empty-verify":  "9b3b097c77e13900299bb429ce7fcf6783d08355bcac2df2bff21de40a42e68c",
	"a64/600.perlbench_s-pie/func-ptr/func-counter-subset": "5f6b7a1da4b81d575baa35e195a1821bc03ae1a35ae1b74be6ff02b68033d4d4",
	"a64/600.perlbench_s-pie/jt/block-counter":             "621cba7bb311d6594b9dcf9866a1cd074174f1421714263007f4324b2a7ba9c0",
	"a64/600.perlbench_s-pie/jt/block-empty-verify":        "6435a608f23602eee6440f3078acdcb6064d1b1d223dba32193cfd267b9ff054",
	"a64/600.perlbench_s-pie/jt/func-counter-subset":       "e6be36d9d9b0cff24b2d3517d8498d59cd50306cec0ba8568f43e16559e9a0e5",
	"a64/600.perlbench_s/dir/block-counter":                "e22d91ba90edbf107ed0514606aeec25748e7eda2a703ecaa728abd0dba608e6",
	"a64/600.perlbench_s/dir/block-empty-verify":           "5b34ef93a907112c4d082ab875f6808c838d95e6fe88c3749e43dfef6363d5f7",
	"a64/600.perlbench_s/dir/func-counter-subset":          "511fd4645aa66124b455d9ab3a5c38c6e01a81eee348175789f4f8dd00824314",
	"a64/600.perlbench_s/func-ptr/block-counter":           "cdd01d4d7eca45152aaa1f784f58c2d7d97f98bc1fbba6f78d71e612f9418bb2",
	"a64/600.perlbench_s/func-ptr/block-empty-verify":      "e422768321c26c36a8eb21187557818ab7a2ba92a40924b4e8e988f4c771bbdf",
	"a64/600.perlbench_s/func-ptr/func-counter-subset":     "5c48d3d22e493076cc82ec0fb325e151d13c146c92ed5324d0eaf5e80086f7ec",
	"a64/600.perlbench_s/jt/block-counter":                 "ab554cbef6334b9960e27390de85454c43b8db85aab5066943ceda646713be0b",
	"a64/600.perlbench_s/jt/block-empty-verify":            "50e309f549fa77b661914eec2c32f8e7064634f7f0005c7c50f8e00f3958506c",
	"a64/600.perlbench_s/jt/func-counter-subset":           "afc2f6869646b807dbe5399da241955b9b44b6e71bbc8f039d9cfdf171b55f59",
	"a64/602.gcc_s/dir/block-counter":                      "728b50593f16dcb678911998a344fa158394728ddec16898ecbeef3acfd46cdd",
	"a64/602.gcc_s/dir/block-empty-verify":                 "e3e1c58d49e536af85abe67e4f06b45440b38d56de245a663db61c3899dc7cda",
	"a64/602.gcc_s/dir/func-counter-subset":                "25052f1e9c7377d8d65a2be6c920b0c109ffbbab944f200504c75160054f45bc",
	"a64/602.gcc_s/func-ptr/block-counter":                 "374cf583c7c753cc1196645fdf7c04354eb3caba73ac419bd2e70f5d6f874de8",
	"a64/602.gcc_s/func-ptr/block-empty-verify":            "11ee65e6a083e6e538f01c3b29d2cd8c063619788ccdf827165009eba1f0dc62",
	"a64/602.gcc_s/func-ptr/func-counter-subset":           "9c417b43391973bb67027312ac2f46363190c6a90838fe3149715113eddb10a9",
	"a64/602.gcc_s/jt/block-counter":                       "99c1e358d062cf37c5e59a8921c28dd1e06f2ae743df4c875d20b22f211e7117",
	"a64/602.gcc_s/jt/block-empty-verify":                  "171863c3334d064d5a6f53f7323b42dec3ed9b0115feaf84c7ba93475ba279b2",
	"a64/602.gcc_s/jt/func-counter-subset":                 "9e0815b0515a6cc6f6f194e950dd835b7bed9b8606dcf02d9a1330b773459cc5",
	"a64/603.bwaves_s/dir/block-counter":                   "1c9eec19aafba4de42d965e2f32e92a11317a032a00be3123199007ec6097fc5",
	"a64/603.bwaves_s/dir/block-empty-verify":              "adac035c4af948fd25e6fb297e4c7e16fdcb4548063a30867250045daf2efb84",
	"a64/603.bwaves_s/dir/func-counter-subset":             "90443194a11e98e28baa186c88e6f022ba5ce04239a25d3fa53202cf5ed55378",
	"a64/603.bwaves_s/func-ptr/block-counter":              "99922ece9fe10a8d6574406752f469730fd82c9f505acdaeb0f20a11ac125ae1",
	"a64/603.bwaves_s/func-ptr/block-empty-verify":         "a41467271ebcb319afcd97a4a85f2049247594070e8969d4f92503db187396b1",
	"a64/603.bwaves_s/func-ptr/func-counter-subset":        "e6e97a3f45795612e88659990950139cb6ec50451c6ce3ede2127a9033ee6287",
	"a64/603.bwaves_s/jt/block-counter":                    "8f1ef2f952b3bbae25411f340b5bfc9ef48182d082da501b9ec500d21df4ba52",
	"a64/603.bwaves_s/jt/block-empty-verify":               "4eac32cf7c6fe2b84c55b12d3b812ef848343703003ef1a41f1964b88bdb95e2",
	"a64/603.bwaves_s/jt/func-counter-subset":              "5f1ca5f78b35b1ee482b01e94553f83ce078c492bc4b4c89e5b357383d35a85a",
	"ppc/600.perlbench_s-pie/dir/block-counter":            "cfe124b45a959d952c11f900974eae6258186225791700965c8f5e543f69184f",
	"ppc/600.perlbench_s-pie/dir/block-empty-verify":       "c9aaa96298995dd9352c1cf4ed6f727255f0d85942c88cbe5449d6a82dec1ec9",
	"ppc/600.perlbench_s-pie/dir/func-counter-subset":      "d66b69a000f7c052ca01eb174da536399c8f746da9c7580053e96688085add54",
	"ppc/600.perlbench_s-pie/func-ptr/block-counter":       "122867a0dc71409ab9a24e4bd95d4498a69156b42f65812d8ae6381fd0162eb4",
	"ppc/600.perlbench_s-pie/func-ptr/block-empty-verify":  "1574ac9695ecc00cc0963f93aa0a73011c84f2d1f3dd3c6ef0c5a2b7ea37f0d1",
	"ppc/600.perlbench_s-pie/func-ptr/func-counter-subset": "0b6ac2ef70634921be36ca97d3230af218c8b4812ca4e6f7ae78f9d29f8cb1da",
	"ppc/600.perlbench_s-pie/jt/block-counter":             "50862f4e0225cb2342058639afe7318281f0feae0b805bc10a7998096cd3185e",
	"ppc/600.perlbench_s-pie/jt/block-empty-verify":        "273cf32662befb6f1abce814d3887535485a1dcc9dc5e0c3444e10dcf930b163",
	"ppc/600.perlbench_s-pie/jt/func-counter-subset":       "4fc7f58d455f7cda6562d4ac3cce02e820239393be9aca2f7f9b1fadd86ac77d",
	"ppc/600.perlbench_s/dir/block-counter":                "cc102a23f3d92b7613d7ee889cfb7ce2b5caeeb5f4eca7d22a1e229a39e44c61",
	"ppc/600.perlbench_s/dir/block-empty-verify":           "d9082ee3f5d80173e0900fce5cc2256ef9cc6da736c5ce670053b0ffaf0a38d2",
	"ppc/600.perlbench_s/dir/func-counter-subset":          "4fdfc30231562191cd0b2ad571b302b2ccfd6f3aba67c942ac5e94c084aebcba",
	"ppc/600.perlbench_s/func-ptr/block-counter":           "a00fdeca6951fb96b22ba1daabbafb3edaa6ca999753778aeadc0f8b641f00a1",
	"ppc/600.perlbench_s/func-ptr/block-empty-verify":      "c0f4f92d6bb6d06e28968792edb0e5ac5cb31fe9035e0e15cb7eef47a200b046",
	"ppc/600.perlbench_s/func-ptr/func-counter-subset":     "04c537a5dfb122c3357c72efb568f7dbdd0789d89be9b5318b408e70c08e0c30",
	"ppc/600.perlbench_s/jt/block-counter":                 "7616f22e497de3244c3d5427f556924526f8dc53e474dea8addbf82ad73cfe7b",
	"ppc/600.perlbench_s/jt/block-empty-verify":            "1f4dc30a7c2fdc8ce52c507951789312c5bb0acb74a965206e9c6c9fb00b61de",
	"ppc/600.perlbench_s/jt/func-counter-subset":           "8a80c6538544493f23c5cbae03f5b36a0092b8d658114a2a03b6d4ff952d1521",
	"ppc/602.gcc_s/dir/block-counter":                      "752ae5593064787e852eb30cca368e1cfe38ba3990f916e3672ecadac57cee84",
	"ppc/602.gcc_s/dir/block-empty-verify":                 "fc2ec99566b7b89156553d9c01c97e435ee244aaa6bce28937a2e7b53d878c38",
	"ppc/602.gcc_s/dir/func-counter-subset":                "48c371309758147e05aed11e8c35fa4a15a27134eb594c522af3089695aa42c9",
	"ppc/602.gcc_s/func-ptr/block-counter":                 "07e7ad41f8385b96f61956cf0ea00efe2639284835ffb781424b9bf50400cb26",
	"ppc/602.gcc_s/func-ptr/block-empty-verify":            "f16d7d42aa90e1293fb514fe694d20d0d5bbac66e25fdd09555bb7b43b5d554f",
	"ppc/602.gcc_s/func-ptr/func-counter-subset":           "1a10383ddb77a6b5134269932c980f2771798fd0195cb2d97e4b0c1b2f8396dd",
	"ppc/602.gcc_s/jt/block-counter":                       "bf8760de7fc4a334e350153d05d6019c472ed12246a600ad0fdf8bd7d1862696",
	"ppc/602.gcc_s/jt/block-empty-verify":                  "a64ae06f48219f8e46a5c75d31b65f09decaa6b538641f8535ece020d7cdcf25",
	"ppc/602.gcc_s/jt/func-counter-subset":                 "3bf4a2b0d1b9a9566c0473f7d48681e93ebc5589da226dda8cbfa4d4904fdb03",
	"ppc/603.bwaves_s/dir/block-counter":                   "e04f1cf4a0069bba030a7a3f731174724f6a1ab024c5d6e3483378ebe546b351",
	"ppc/603.bwaves_s/dir/block-empty-verify":              "26105b7f6586c662a0d2fc837f27004062e099f59ef5d94c97f2c28d4b8c7fb7",
	"ppc/603.bwaves_s/dir/func-counter-subset":             "7da3d7fb6d0c834251d6530264fbc2d7860b3ebc54e4a8cb1ded7dd6148e4153",
	"ppc/603.bwaves_s/func-ptr/block-counter":              "3d7b42ed3a67551124f9a6cbae695c6905e3d3cd3f3b6f7b8dc7c6c6968f94fa",
	"ppc/603.bwaves_s/func-ptr/block-empty-verify":         "47113ce27db0e3e418d7c855529d7045d4daf0867bf76245ac3b411aee6aa120",
	"ppc/603.bwaves_s/func-ptr/func-counter-subset":        "dd9db7f0f088713c049e8a01347c59efe41b35a1505759bc1fd1bbdc22b34df1",
	"ppc/603.bwaves_s/jt/block-counter":                    "9937d4389e5e7c31d36bbf9c220fea852f59ba0fdf0b311d15b011e7817bf8c9",
	"ppc/603.bwaves_s/jt/block-empty-verify":               "62efb745f0c77528f9efa694438e8a4ca65f7ada999693e5fcf6d7db9e3b550e",
	"ppc/603.bwaves_s/jt/func-counter-subset":              "dd9db7f0f088713c049e8a01347c59efe41b35a1505759bc1fd1bbdc22b34df1",
	"x64/600.perlbench_s-pie/dir/block-counter":            "5a478c50f2367a7123ec16698277e3642a58228d86cdc7938b0b271bfcd656ac",
	"x64/600.perlbench_s-pie/dir/block-empty-verify":       "92f6a6e5d58dbbff47cf80f3c5ecd98b75d81d52754e53e3deb4c87b5fcf60c8",
	"x64/600.perlbench_s-pie/dir/func-counter-subset":      "e7255a8157bdba5204871122728908a04cd9f1706781aebd81f70485fb69a1b7",
	"x64/600.perlbench_s-pie/func-ptr/block-counter":       "59a36e19d1d2873353883508cb3f20d7e8bb51528b40797a0fb9b9cb172d24b9",
	"x64/600.perlbench_s-pie/func-ptr/block-empty-verify":  "fe461491efb240c3963137dced6273a27b74781f636c2d80ee8e915c78e91675",
	"x64/600.perlbench_s-pie/func-ptr/func-counter-subset": "d8d2047394189fb4c110ae2b9e3a6abf70449a1cc5c01467eef35fbc498b077c",
	"x64/600.perlbench_s-pie/jt/block-counter":             "54d2d867458c1e4e016b3392e5faebca0d775f4ad63021190a8f2bfda8c05ef3",
	"x64/600.perlbench_s-pie/jt/block-empty-verify":        "3eecd91d6d5adf29e2214f2eb5e3ead8834010af9ea7ea096bc240012db80864",
	"x64/600.perlbench_s-pie/jt/func-counter-subset":       "57d8c778f0a9b49663ed837a646dc9a0704a8dea3792c6a89296f7c125abcd16",
	"x64/600.perlbench_s/dir/block-counter":                "dc05a768f0a36ca72e90be4b0861eb6c2b11f701db06ae166dda40f72299ec83",
	"x64/600.perlbench_s/dir/block-empty-verify":           "b7671124060625be1bb8837f0b583b6df6f9dbdd414547fa5e723f9bbd47db5a",
	"x64/600.perlbench_s/dir/func-counter-subset":          "ff9d3a1e74fc4e7e01ac2515f85f360246f9b4049cb675d3ba3819e4c2a5ac44",
	"x64/600.perlbench_s/func-ptr/block-counter":           "a151ca85ba334672c5c263865e45a27b902d6ff411ca375ccef5fd29b8479ec2",
	"x64/600.perlbench_s/func-ptr/block-empty-verify":      "0841b2fe223a8d4a6461028f2c5d6b538bff396ac94355fb23c4bc81b40be5e3",
	"x64/600.perlbench_s/func-ptr/func-counter-subset":     "37775b82976db8aa5250ec05f7f41df3adbb2c373ae98d1d4c8b1c5499c6d929",
	"x64/600.perlbench_s/jt/block-counter":                 "3060d56c8b9e803a37fde8f739b96166d97e8351ac4b3852e80fee84abf383aa",
	"x64/600.perlbench_s/jt/block-counter-guided":          "cf83ca7ec9f3b7c8cc0dccd2d8673f3700e545d79a6fe328f51fe513fa8f664a",
	"x64/600.perlbench_s/jt/block-empty-verify":            "e3c5eb5e069745240a720cfc867ceaa4b2c28141d495784890231306cc9d17a2",
	"x64/600.perlbench_s/jt/func-counter-subset":           "c5caae3bda0da4a178ff1a6beb28487b383b6fdcd54216c80b0ef269c9190fc3",
	"x64/602.gcc_s/dir/block-counter":                      "2bcbd374e7422b8dd4c2a58d666adb74e9d1d9345b822b30d84e81b9573ff058",
	"x64/602.gcc_s/dir/block-empty-verify":                 "c7b02803f42517e7e2f2d282b245585aa876327302c63017f5192fe849d84e68",
	"x64/602.gcc_s/dir/func-counter-subset":                "94482ea26bc6917ba7bea59887817939d5b407635af389c2e4e26cfe6dfc1328",
	"x64/602.gcc_s/func-ptr/block-counter":                 "33d46eca7a28df268562ece0946d04ccee54d71aa1e8d448fb45ba9148dda770",
	"x64/602.gcc_s/func-ptr/block-empty-verify":            "290792fa2838bf135de59bcf8c5b68c56188f4e39ba1dd2888fba011d86b1a21",
	"x64/602.gcc_s/func-ptr/func-counter-subset":           "615643f4c7f619f2c9c5171a64a5bd8992649ef8389da17e2c7449bfc16e0c37",
	"x64/602.gcc_s/jt/block-counter":                       "4ac3d6ff66b1c4f5cacddd874e4b0233c527b61c521f964504f2f336b3e31261",
	"x64/602.gcc_s/jt/block-empty-verify":                  "0e334ccae9d5d4a2017862ece9339419ad01fae479b7d840fde69abd9c83d72b",
	"x64/602.gcc_s/jt/func-counter-subset":                 "d3c4a9608ec6a14324ee31e55a8792bdd9455ec9952818e34cf4563b7f5f557c",
	"x64/603.bwaves_s/dir/block-counter":                   "d50c178516e30b8a97a80af5a9c8d4165eae96e8e6f2e2b0c960c7a76061dbcb",
	"x64/603.bwaves_s/dir/block-empty-verify":              "bb33e4687d6f27c0a8dbc024374033b494c7ea48997b6d5ef6c593eae1ab7ea3",
	"x64/603.bwaves_s/dir/func-counter-subset":             "cb3a32c19cbf354a1ebdb825e7a194d57933fe5e82ec6632191cd1d7d978f67b",
	"x64/603.bwaves_s/func-ptr/block-counter":              "28398610690c82d34e19e9d2d3c285646fbb23e592839e71ddf43604aa178673",
	"x64/603.bwaves_s/func-ptr/block-empty-verify":         "d3326075c57addb334c32ea85bc25cad923d2a994b95d13ed60afd6505964fd6",
	"x64/603.bwaves_s/func-ptr/func-counter-subset":        "0f62784fa6bd863ef29a7e886102174d3cb70a6f894b6db1c8e105b99c580aa3",
	"x64/603.bwaves_s/jt/block-counter":                    "4de731a01705fe9cdffacbd2c52364286175875e9ed5967dd65944ec07d7b20b",
	"x64/603.bwaves_s/jt/block-empty-verify":               "cb1991e6b17ba47334ffca1b45b41932a1476b1d996e6e39edf34c0a70bfd9cb",
	"x64/603.bwaves_s/jt/func-counter-subset":              "003a0dbd1920271254b07498aed170e21c3778dc8db9990fe801aac7cff080c9",
	"x64/docker-cfi/func-ptr/block-empty":                  "4c8954b8c069cca1768ebf71bfd481ee87cad7327b991c059994e638910ad17a",
	"x64/libxul/jt/block-counter":                          "c5fe5a7e00ae9999e4f390ddc284f089e7757cee8f13274aa2789c1a715adcb1",
}
