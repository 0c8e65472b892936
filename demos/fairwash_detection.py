"""Catching fairwashed explanations with prediction-recovery scoring.

A biased lending rule decides purely on the protected column. An adversarial
wrapper preserves those decisions on real data but answers with an innocuous
foil rule whenever its detector thinks a query is off-manifold -- the standard
trick for fooling sampling-based explainers into blaming the foil feature.

We score three competing explanation stories: "the protected feature drives
the model" (true), "a foil feature drives it" (the fairwashed story), and
one-hot explanations for every other column. The k-NN recovery metric only
ever consults real rows, so the off-manifold deception buys the attacker
nothing; the perturbation-gap baselines query exactly the points the attacker
controls and can be led astray.
"""
from axebench import AxeConfig, PerturbConfig, bundle_from_config, run_fairwash_detection
from axebench.experiments import default_attack_configs

config = default_attack_configs(seed=0)[0]  # the lending stand-in, two models
bundle = bundle_from_config(config)
print(f"dataset: {config.dataset_name} (synthetic stand-in, {bundle.dataset.nu} rows)")
for name, model in bundle.models.items():
    print(f"  {name}: detector accuracy {model.detector.heldout_accuracy:.3f}, "
          f"agreement with biased rule {model.on_data_agreement:.3f}")

verdicts = run_fairwash_detection(
    bundle, axe_cfgs=(AxeConfig(n=1, k=5),),
    perturb_cfg=PerturbConfig(n=1, num_perturbations=100, sigma=0.5, seed=0))

print(f"\n{'model':<7}{'metric':<7}{'q(protected)':>13}{'q(foil)':>10}"
      f"{'q(other)':>10}   detected?")
for v in verdicts:
    print(f"{v.model_name:<7}{v.metric_name:<7}{v.q_protected:>13.3f}"
          f"{v.q_foil1:>10.3f}{v.q_other:>10.3f}   {'yes' if v.passed else 'NO'}")

axe_ok = all(v.passed for v in verdicts if v.metric_name == "axe")
print(f"\nprediction-recovery metric detects the manipulation on every model: {axe_ok}")
