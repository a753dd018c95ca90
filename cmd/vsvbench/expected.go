package main

// Committed simulated counts (see simCounts), formatted with
// strconv.FormatFloat(v, 'g', -1, 64). They change only with the physics;
// an intentional physics change updates them together with
// testdata/golden_short.sha256.

// shortCounts are the Figure 4/7 points at the golden short windows.
var shortCounts = map[string]string{
	"branch.mispredict_rate":   "0.07614536753011891",
	"cache.dl1_miss_rate":      "0.2227810920819686",
	"cache.l2_mr":              "4.627404328730919",
	"core.low_frac":            "0.19680929045431392",
	"core.transitions":         "2466",
	"pipeline.zero_issue_frac": "0.38469114667879234",
	"power.energy_mj":          "21.559205651186122",
	"sim.instructions":         "2.600397e+06",
	"sim.ticks":                "1.531259e+06",
}

// defaultCounts are the Figure 4/7 points at experiments.DefaultOptions.
var defaultCounts = map[string]string{
	"branch.mispredict_rate":   "0.0638869851790317",
	"cache.dl1_miss_rate":      "0.23212887351677297",
	"cache.l2_mr":              "4.591162955915179",
	"core.low_frac":            "0.19629888379771498",
	"core.transitions":         "37278",
	"pipeline.zero_issue_frac": "0.36944122411424457",
	"power.energy_mj":          "316.9501818972378",
	"sim.instructions":         "3.9000311e+07",
	"sim.ticks":                "2.1912414e+07",
}
