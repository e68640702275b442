//! The experiment suite: every table and figure, paper value vs measured
//! value, with a pass flag per the reproduction's shape criteria. This is
//! what `examples/full_reproduction.rs` runs to regenerate
//! `EXPERIMENTS.md`.

use crate::breakdown::{ca_breakdown, provider_breakdown, tld_breakdown};
use crate::cases::{afghan_persian_case, dependence_on, foreign_dependence_cases};
use crate::centralization::layer_table;
use crate::classes::{classify, ProviderClass};
use crate::correlations::{class_correlations, hosting_vs_tld_insularity, layer_score_correlation};
use crate::ctx::AnalysisCtx;
use crate::figures::{
    fig12_histograms, fig1_topn_shortcoming, fig2_emd_example, fig3_example_curves,
    fig4_usage_endemicity,
};
use crate::insularity::insularity_table;
use crate::longitudinal::compare;
use crate::regional::{continent_matrix, subregion_summary, Attribution};
use crate::vantage::validate_vantage;
use serde::Serialize;
use std::fmt::Write as _;
use webdep_webgen::{DeployedWorld, Layer, World, COUNTRIES};

/// One experiment's paper-vs-measured outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// Paper table/figure/section id, e.g. `Fig 5 / Tab 5`.
    pub id: String,
    /// What is being reproduced.
    pub description: String,
    /// The paper's reported value (as text).
    pub paper: String,
    /// The measured value (as text).
    pub measured: String,
    /// Whether the reproduction criterion holds.
    pub pass: bool,
}

/// The full suite.
#[derive(Debug, Clone, Serialize, Default)]
pub struct ExperimentSuite {
    /// All experiment results, paper order.
    pub results: Vec<ExperimentResult>,
}

impl ExperimentSuite {
    fn push(&mut self, id: &str, description: &str, paper: String, measured: String, pass: bool) {
        self.results.push(ExperimentResult {
            id: id.to_string(),
            description: description.to_string(),
            paper,
            measured,
            pass,
        });
    }

    /// Experiments that passed.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.pass).count()
    }

    /// Total experiments.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Markdown rendering for `EXPERIMENTS.md`.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| id | what | paper | measured | ok |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for r in &self.results {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                r.id,
                r.description,
                r.paper,
                r.measured,
                if r.pass { "yes" } else { "NO" }
            );
        }
        out
    }

    /// Runs every experiment the primary snapshot supports. Pass the 2025
    /// snapshot for §5.4 and a live deployment for §3.4; they are skipped
    /// (not failed) when absent.
    pub fn run(
        ctx: &AnalysisCtx<'_>,
        evolved: Option<&AnalysisCtx<'_>>,
        deployment: Option<&DeployedWorld>,
    ) -> ExperimentSuite {
        let mut suite = ExperimentSuite::default();

        // --- Metric figures (measurement-independent) ---
        let f2 = fig2_emd_example();
        suite.push(
            "Fig 2",
            "worked EMD example (countries A/B)",
            "S_A=0.28, S_B=0.32".into(),
            format!("S_A={:.4}, S_B={:.4}", f2.country_a.1, f2.country_b.1),
            (f2.country_a.1 - 0.28).abs() < 0.01 && (f2.country_b.1 - 0.32).abs() < 0.01,
        );
        let f3 = fig3_example_curves(10_000);
        let f3_ok = f3
            .curves
            .iter()
            .all(|(t, a, _)| (t - a).abs() < 0.02 * (1.0 + t * 10.0));
        suite.push(
            "Fig 3",
            "synthetic score ladder",
            format!("{:?}", crate::figures::FIG3_TARGETS),
            format!(
                "{:?}",
                f3.curves
                    .iter()
                    .map(|c| (c.1 * 1000.0).round() / 1000.0)
                    .collect::<Vec<_>>()
            ),
            f3_ok,
        );

        // --- Figure 1 ---
        let f1 = fig1_topn_shortcoming(ctx);
        let get = |code: &str| f1.curves.iter().find(|c| c.0 == code);
        if let (Some(az), Some(hk)) = (get("AZ"), get("HK")) {
            suite.push(
                "Fig 1",
                "top-N blind spot: AZ vs HK",
                "similar top-5, S_AZ > S_HK".into(),
                format!(
                    "top5 {:.2} vs {:.2}; S {:.4} vs {:.4}",
                    az.2, hk.2, az.3, hk.3
                ),
                az.3 > hk.3,
            );
        }

        // --- Layer tables (Tables 5-8, Figures 5, 17-19) ---
        let tables: Vec<_> = Layer::ALL
            .iter()
            .map(|&l| (l, layer_table(ctx, l)))
            .collect();
        for (layer, t) in &tables {
            let corr = t.paper_correlation().map(|c| c.rho).unwrap_or(0.0);
            let mean = t.summary.as_ref().map(|s| s.mean).unwrap_or(f64::NAN);
            suite.push(
                &format!("Tab {} ", 5 + layer.index()),
                &format!("{} per-country scores vs paper", layer.name()),
                "rank/shape match (rho ~ 1)".into(),
                format!("rho = {corr:.3}, mean {mean:.4}"),
                corr > 0.9,
            );
        }

        // --- Coverage (graceful-degradation accounting) ---
        let cov = crate::coverage::coverage_model(ctx);
        let min_frac = cov
            .layers
            .iter()
            .map(|l| l.fraction())
            .fold(f64::INFINITY, f64::min);
        let tax = ctx.ds.failure_taxonomy();
        suite.push(
            "§3.4",
            "measurement coverage per layer",
            "every toplist site observed".into(),
            format!(
                "min layer coverage {:.1}%; {} / {} sites clean",
                100.0 * min_frac,
                tax.clean,
                tax.total
            ),
            min_frac > 0.99,
        );
        let hosting = &tables[0].1;
        let th = hosting.row("TH").map(|r| r.rank).unwrap_or(999);
        let ir = hosting.row("IR").map(|r| r.rank).unwrap_or(0);
        suite.push(
            "§5.1",
            "hosting extremes: TH most / IR least centralized",
            "TH #1 (0.3548), IR #150 (0.0411)".into(),
            format!("TH #{th}, IR #{ir}"),
            th <= 10 && ir >= 140,
        );
        suite.push(
            "§5.1",
            "90% of sites served by < 206 providers everywhere",
            "< 206".into(),
            format!("max {}", hosting.max_providers_for_90pct()),
            hosting.max_providers_for_90pct() < 206,
        );
        // Bootstrap 95% CIs on every per-country hosting score (the
        // paper's scores are point estimates over a sampled toplist; the
        // reproduction quantifies that sampling noise). 500 replicates per
        // country resample the per-site owner labels, all through one
        // reused scratch — the batched kernel path.
        let mut scratch = webdep_stats::BootstrapScratch::new();
        let mut ci_of = |ci: usize| {
            ctx.score_ci_abortable(ci, Layer::Hosting, 500, 0.95, 42, &mut scratch, &mut || {
                false
            })
            .ok()
            .flatten()
        };
        let cis: Vec<_> = (0..COUNTRIES.len()).filter_map(&mut ci_of).collect();
        let max_width = cis.iter().map(|c| c.width()).fold(0.0, f64::max);
        let th_ci = World::country_index("TH").and_then(&mut ci_of);
        let ir_ci = World::country_index("IR").and_then(&mut ci_of);
        let separated = match (&th_ci, &ir_ci) {
            (Some(th), Some(ir)) => th.lo > ir.hi,
            _ => false,
        };
        suite.push(
            "Tab 5",
            "per-country score CIs tight; TH/IR extremes separated",
            "point estimates stable under resampling".into(),
            format!(
                "{} countries, max CI width {:.3}; TH [{:.3}, {:.3}] vs IR [{:.3}, {:.3}]",
                cis.len(),
                max_width,
                th_ci.as_ref().map(|c| c.lo).unwrap_or(0.0),
                th_ci.as_ref().map(|c| c.hi).unwrap_or(0.0),
                ir_ci.as_ref().map(|c| c.lo).unwrap_or(0.0),
                ir_ci.as_ref().map(|c| c.hi).unwrap_or(0.0),
            ),
            cis.len() == COUNTRIES.len() && separated && max_width < 0.2,
        );
        let se = hosting.subregion_mean("South-eastern Asia").unwrap_or(0.0);
        let ca_sub = hosting.subregion_mean("Central Asia").unwrap_or(1.0);
        suite.push(
            "Fig 9",
            "SE Asia most / Central Asia least centralized subregions (hosting)",
            "0.2403 vs 0.0788".into(),
            format!("{se:.4} vs {ca_sub:.4}"),
            se > ca_sub,
        );

        // --- CA layer specifics (§7) ---
        let ca_table = &tables[2].1;
        let (ca_mean, ca_var) = ca_table
            .summary
            .as_ref()
            .map(|s| (s.mean, s.var))
            .unwrap_or((f64::NAN, f64::NAN));
        suite.push(
            "§7.1",
            "CA centralization tight across countries",
            "mean 0.2007, var 0.0007".into(),
            format!("mean {ca_mean:.4}, var {ca_var:.5}"),
            ca_var < 0.01,
        );

        // --- Classes (Tables 1-3, Figure 6) ---
        let hosting_classes = classify(ctx, Layer::Hosting);
        let xl = hosting_classes.members(ProviderClass::XlGp);
        let xl_names: Vec<&str> = xl
            .iter()
            .map(|&id| ctx.world.universe.provider(id).name.as_str())
            .collect();
        suite.push(
            "Tab 1 / Fig 6",
            "hosting XL-GP class = the two hyperscalers",
            "Cloudflare, Amazon".into(),
            format!("{xl_names:?} ({} clusters)", hosting_classes.num_clusters),
            xl_names.contains(&"Cloudflare") && xl_names.contains(&"Amazon") && xl.len() == 2,
        );
        let dns_classes = classify(ctx, Layer::Dns);
        let nsone_global = ctx
            .world
            .universe
            .provider_by_name("NSONE")
            .map(|id| dns_classes.class(id).is_global())
            .unwrap_or(false);
        suite.push(
            "Tab 2",
            "managed DNS providers classify as global",
            "NSONE, UltraDNS L-GP".into(),
            format!("NSONE global = {nsone_global}"),
            nsone_global,
        );
        let ca_classes = classify(ctx, Layer::Ca);
        let asseco_regional = ctx
            .world
            .universe
            .ca_by_name("Asseco")
            .map(|id| !ca_classes.class(id).is_global())
            .unwrap_or(false);
        suite.push(
            "Tab 3",
            "CA classes: big-7 global, Asseco regional",
            "7 L-GP; Asseco L-RP".into(),
            format!("Asseco regional = {asseco_regional}"),
            asseco_regional,
        );

        // --- Breakdowns (Figures 7, 14, 15, 16) ---
        let b7 = provider_breakdown(ctx, Layer::Hosting, &hosting_classes);
        let top_cf = b7.stacks.first().map(|s| s.shares[0]).unwrap_or(0.0);
        let bottom_cf = b7.stacks.last().map(|s| s.shares[0]).unwrap_or(0.0);
        suite.push(
            "Fig 7",
            "Cloudflare share drives centralization ordering",
            "top country ~60%, bottom ~14%".into(),
            format!("{:.0}% vs {:.0}%", 100.0 * top_cf, 100.0 * bottom_cf),
            top_cf > bottom_cf + 0.2,
        );
        let b15 = ca_breakdown(ctx, &ca_classes);
        let min_big7 = b15
            .stacks
            .iter()
            .map(|s| s.shares[..7].iter().sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        suite.push(
            "Fig 15",
            "7 large CAs dominate everywhere",
            "80-99.7% per country".into(),
            format!("min {:.0}%", 100.0 * min_big7),
            min_big7 > 0.6,
        );
        let b16 = tld_breakdown(ctx);
        let us_com = b16.share("US", "com").unwrap_or(0.0);
        suite.push(
            "Fig 16 / App B",
            ".com dominates the US TLD mix",
            "77%".into(),
            format!("{:.0}%", 100.0 * us_com),
            us_com > 0.6,
        );
        // DNS breakdown (Figure 14) exists for every country.
        let b14 = provider_breakdown(ctx, Layer::Dns, &dns_classes);
        suite.push(
            "Fig 14",
            "DNS class breakdown computed for all countries",
            "150 countries".into(),
            format!("{} countries", b14.stacks.len()),
            b14.stacks.len() == 150,
        );

        // --- Correlations (§5.2, §5.3.1, §6, App B) ---
        let corr = class_correlations(ctx, Layer::Hosting, &hosting_classes);
        let rho_xl = corr.s_vs_xlgp.map(|c| c.rho).unwrap_or(0.0);
        suite.push(
            "§5.2",
            "S vs XL-GP share",
            "rho = 0.90 (strong)".into(),
            format!("rho = {rho_xl:.2}"),
            rho_xl > 0.7,
        );
        let rho_l = corr.s_vs_lgp.map(|c| c.rho).unwrap_or(1.0);
        suite.push(
            "§5.2",
            "S vs other L-GP share (weak)",
            "rho = 0.19 (poor)".into(),
            format!("rho = {rho_l:.2}"),
            rho_l.abs() < rho_xl.abs(),
        );
        let rho_lrp = corr.s_vs_lrp.map(|c| c.rho).unwrap_or(0.0);
        suite.push(
            "§5.2",
            "S vs L-RP share (negative)",
            "rho = -0.72 (moderate)".into(),
            format!("rho = {rho_lrp:.2}"),
            rho_lrp < -0.3,
        );
        let rho_ins = corr.s_vs_insularity.map(|c| c.rho).unwrap_or(0.0);
        suite.push(
            "§5.3.1",
            "S vs insularity (negative)",
            "rho = -0.61 (moderate)".into(),
            format!("rho = {rho_ins:.2}"),
            rho_ins < -0.2,
        );
        let rho_hd = layer_score_correlation(ctx, Layer::Hosting, Layer::Dns)
            .map(|c| c.rho)
            .unwrap_or(0.0);
        suite.push(
            "§6.1",
            "hosting and DNS centralization track",
            "similar distributions".into(),
            format!("rho = {rho_hd:.2}"),
            rho_hd > 0.8,
        );
        let rho_tld = hosting_vs_tld_insularity(ctx).map(|c| c.rho).unwrap_or(0.0);
        suite.push(
            "App B",
            "hosting insularity vs TLD insularity",
            "rho = 0.70 (moderate)".into(),
            format!("rho = {rho_tld:.2}"),
            rho_tld > 0.35,
        );

        // --- Insularity (§5.3.1, §7.2, Figures 10/11/13/20-22) ---
        let ins_host = insularity_table(ctx, Layer::Hosting);
        let top4: Vec<&str> = ins_host.rows.iter().take(4).map(|r| r.code).collect();
        suite.push(
            "Fig 20",
            "hosting insularity top: US, IR, CZ, RU",
            "92.1% / 64.8% / 54.5% / 51.1%".into(),
            format!("{top4:?} ({:.0}%)", 100.0 * ins_host.rows[0].insularity),
            top4[0] == "US"
                && ["IR", "CZ", "RU"]
                    .iter()
                    .all(|c| ins_host.row(c).map(|r| r.rank <= 15).unwrap_or(false)),
        );
        let ins_ca = insularity_table(ctx, Layer::Ca);
        suite.push(
            "Fig 13",
            "few countries have domestic CA usage",
            "24 countries".into(),
            format!("{} countries", ins_ca.countries_with_nonzero()),
            (5..=45).contains(&ins_ca.countries_with_nonzero()),
        );
        let ins_tld = insularity_table(ctx, Layer::Tld);
        let tld_mean: f64 =
            ins_tld.rows.iter().map(|r| r.insularity).sum::<f64>() / ins_tld.rows.len() as f64;
        let host_mean: f64 =
            ins_host.rows.iter().map(|r| r.insularity).sum::<f64>() / ins_host.rows.len() as f64;
        suite.push(
            "Fig 11",
            "countries are most insular at the TLD layer",
            "TLD CDF right of other layers".into(),
            format!("mean {:.2} vs hosting {:.2}", tld_mean, host_mean),
            tld_mean > host_mean,
        );

        // --- Regional (Figure 8) ---
        let hq = continent_matrix(ctx, Attribution::HostingHq);
        let af_ext = crate::regional::africa_external_reliance(&hq);
        suite.push(
            "Fig 8a",
            "Africa relies on N. American + European providers",
            "dominant share".into(),
            format!("{:.0}%", 100.0 * af_ext),
            af_ext > 0.6,
        );
        let ip = continent_matrix(ctx, Attribution::IpGeo);
        let anycast_mean: f64 = (0..6).map(|r| ip.share[r][6]).sum::<f64>() / 6.0;
        suite.push(
            "Fig 8b",
            "anycast + regional serving visible in IP geolocation",
            "NA-provider content served in-region".into(),
            format!("mean anycast {:.0}%", 100.0 * anycast_mean),
            anycast_mean > 0.05,
        );
        let ns = continent_matrix(ctx, Attribution::NsGeo);
        let ns_anycast: f64 = (0..6).map(|r| ns.share[r][6]).sum::<f64>() / 6.0;
        suite.push(
            "Fig 8c",
            "anycast heavy in nameserver infrastructure",
            "higher than hosting".into(),
            format!("mean anycast {:.0}%", 100.0 * ns_anycast),
            ns_anycast > 0.05,
        );
        let subs = subregion_summary(ctx);
        suite.push(
            "Fig 10",
            "subregion insularity summary computed",
            "all subregions".into(),
            format!("{} subregions", subs.len()),
            subs.iter().map(|s| s.countries).sum::<usize>() == 150,
        );

        // --- Figures 4 and 12 ---
        let f4 = fig4_usage_endemicity(ctx, "Cloudflare", "Beget");
        let f4_ok = f4.len() == 2 && f4[0].endemicity_ratio < f4[1].endemicity_ratio;
        suite.push(
            "Fig 4",
            "global provider larger + less endemic than regional",
            "Cloudflare vs Beget-like".into(),
            f4.iter()
                .map(|f| format!("{}: U={:.0} E_R={:.2}", f.name, f.usage, f.endemicity_ratio))
                .collect::<Vec<_>>()
                .join("; "),
            f4_ok,
        );
        let f12 = fig12_histograms(ctx);
        let marker_host = f12.layers[0].2.unwrap_or(0.0);
        let hosting_mean = hosting.summary.as_ref().map(|s| s.mean).unwrap_or(f64::NAN);
        let marker_ok = (marker_host - hosting_mean).abs() < 0.08;
        suite.push(
            "Fig 12",
            "global-top marker representative for hosting",
            "near the mean".into(),
            format!("marker {marker_host:.3} vs mean {hosting_mean:.3}"),
            marker_ok,
        );

        // --- Case studies (§5.3.3) ---
        let cases = foreign_dependence_cases(ctx, Layer::Hosting, 0.10);
        let ru_cases = cases.iter().filter(|c| c.on == "RU").count();
        suite.push(
            "§5.3.3",
            "CIS states depend on Russian providers",
            "TM 33%, TJ 23%, KG 22%, KZ 21%, BY 18%".into(),
            format!(
                "{} RU cases; TM {:.0}%",
                ru_cases,
                100.0 * dependence_on(ctx, "TM", "RU", Layer::Hosting)
            ),
            ru_cases >= 5 && dependence_on(ctx, "TM", "RU", Layer::Hosting) > 0.15,
        );
        suite.push(
            "§5.3.3",
            "France serves DOM + former colonies",
            "RE 36%, GP 34%, MQ 35%, BF 21%".into(),
            format!(
                "RE {:.0}%, BF {:.0}%",
                100.0 * dependence_on(ctx, "RE", "FR", Layer::Hosting),
                100.0 * dependence_on(ctx, "BF", "FR", Layer::Hosting)
            ),
            dependence_on(ctx, "RE", "FR", Layer::Hosting) > 0.2,
        );
        suite.push(
            "§5.3.3",
            "Slovakia on Czechia",
            "26%".into(),
            format!(
                "{:.0}%",
                100.0 * dependence_on(ctx, "SK", "CZ", Layer::Hosting)
            ),
            dependence_on(ctx, "SK", "CZ", Layer::Hosting) > 0.15,
        );
        if let Some(persian) = afghan_persian_case(ctx) {
            suite.push(
                "§5.3.3",
                "Afghan Persian sites hosted in Iran",
                "31.4% Persian, 60.8% of them in Iran".into(),
                format!(
                    "{:.1}% Persian, {:.1}% in Iran",
                    100.0 * persian.persian_fraction,
                    100.0 * persian.persian_iran_hosted
                ),
                persian.persian_fraction > 0.2 && persian.persian_iran_hosted > 0.35,
            );
        }

        // --- Appendix B: TLD deep-dive ---
        let ru_adoption = crate::tld_appendix::external_cc_adoption(ctx, "RU", 0.05);
        suite.push(
            "App B",
            ".ru used across the CIS",
            "KG 22%, TJ, TM, KZ, BY ...".into(),
            format!(
                "{} countries, top {} at {:.0}%",
                ru_adoption.len(),
                ru_adoption.first().map(|u| u.country).unwrap_or("-"),
                100.0 * ru_adoption.first().map(|u| u.share).unwrap_or(0.0)
            ),
            ru_adoption.len() >= 5,
        );
        let fr_adoption = crate::tld_appendix::external_cc_adoption(ctx, "FR", 0.05);
        let fr_outranking = fr_adoption.iter().filter(|u| u.outranks_local).count();
        suite.push(
            "App B",
            ".fr more popular than local ccTLDs in the DOM + former colonies",
            "14 countries use .fr; several above their own ccTLD".into(),
            format!(
                "{} users, {} outrank local",
                fr_adoption.len(),
                fr_outranking
            ),
            fr_adoption.len() >= 5 && fr_outranking >= 3,
        );
        let ext_corr = crate::tld_appendix::external_cc_vs_centralization(ctx)
            .map(|c| c.rho)
            .unwrap_or(0.0);
        suite.push(
            "Fig 16",
            "external-ccTLD use correlates with lower TLD centralization",
            "strong negative".into(),
            format!("rho = {ext_corr:.2}"),
            ext_corr < -0.3,
        );

        // --- Longitudinal (§5.4) ---
        if let Some(evolved) = evolved {
            let rep = compare(ctx, evolved);
            let rho = rep.score_correlation.map(|c| c.rho).unwrap_or(0.0);
            suite.push(
                "§5.4",
                "2023-2025 score stability",
                "rho = 0.98".into(),
                format!("rho = {rho:.3}"),
                rho > 0.9,
            );
            suite.push(
                "§5.4",
                "Cloudflare adoption up; Jaccard churn",
                "+3.8 pts avg; Jaccard ~0.37".into(),
                format!(
                    "+{:.1} pts; Jaccard {:.2}",
                    rep.mean_cloudflare_delta_pts, rep.mean_jaccard
                ),
                rep.mean_cloudflare_delta_pts > 1.0 && (0.2..0.6).contains(&rep.mean_jaccard),
            );
            let tm = rep
                .delta("TM")
                .map(|d| d.cloudflare_delta_pts)
                .unwrap_or(0.0);
            let ru = rep
                .delta("RU")
                .map(|d| d.cloudflare_delta_pts)
                .unwrap_or(9.0);
            suite.push(
                "§5.4",
                "extremes: TM +11.3 pts, RU -2.0 pts",
                "+11.3 / -2.0".into(),
                format!("TM {tm:+.1}, RU {ru:+.1}"),
                tm > 6.0 && ru <= 0.5,
            );
        }

        // --- Vantage validation (§3.4) ---
        if let Some(dep) = deployment {
            let v = validate_vantage(ctx, dep, 60, 5);
            let rho = v.correlation.map(|c| c.rho).unwrap_or(0.0);
            suite.push(
                "§3.4",
                "vantage-point validation (RIPE analogue)",
                "rho = 0.96".into(),
                format!("rho = {rho:.3} over {} countries", v.scores.len()),
                rho > 0.9,
            );
        }

        suite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;

    #[test]
    fn suite_runs_and_mostly_passes() {
        let c = ctx();
        let suite = ExperimentSuite::run(&c, None, None);
        assert!(suite.total() >= 25, "experiments: {}", suite.total());
        let failed: Vec<&ExperimentResult> = suite.results.iter().filter(|r| !r.pass).collect();
        assert!(
            failed.is_empty(),
            "failing experiments: {:#?}",
            failed
                .iter()
                .map(|r| format!("{}: {} ({})", r.id, r.description, r.measured))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn markdown_renders() {
        let c = ctx();
        let suite = ExperimentSuite::run(&c, None, None);
        let md = suite.to_markdown();
        assert!(md.contains("| Fig 2 |"));
        assert!(md.lines().count() >= suite.total() + 2);
    }

    /// Regenerating the report must be byte-identical: two fresh contexts
    /// (two cube builds, so two parallel passes at whatever thread count
    /// this host has), two suite runs, one answer. Guards every ordering
    /// and parallelism decision in the engine at once.
    #[test]
    fn report_regeneration_is_byte_identical() {
        let first = ExperimentSuite::run(&ctx(), None, None).to_markdown();
        let second = ExperimentSuite::run(&ctx(), None, None).to_markdown();
        assert_eq!(first, second);
    }
}
