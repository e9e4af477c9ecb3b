//! Race-detector self-test: the perturbed schedule must be
//! observationally identical on the real hierarchy, and must diverge
//! when the deliberate `HashMap`-ordered event drain is injected —
//! proving the detector actually fires on a schedule race rather than
//! vacuously passing.

use coyote_lint::race::{check, named_config, DEFAULT_PERTURB_SEED};

#[test]
fn perturbed_schedule_is_clean_on_the_real_hierarchy() {
    let outcome = check("tiny", 0, false).expect("tiny config runs");
    assert_eq!(outcome.perturb_seed, DEFAULT_PERTURB_SEED);
    assert!(outcome.cycles > 0);
    assert!(
        outcome.divergence.is_none(),
        "schedule race on the real hierarchy: {:?}",
        outcome.divergence
    );
}

#[test]
fn injected_hashmap_drain_is_caught() {
    let outcome = check("tiny", 0, true).expect("tiny config runs");
    let divergence = outcome
        .divergence
        .expect("the injected HashMap-ordered drain must be detected as a race");
    assert!(
        !divergence.observables.is_empty(),
        "divergence must name what differed"
    );
    // The localization pass names the first divergent cycle and the
    // event pair from the two schedules.
    assert!(
        divergence.cycle.is_some(),
        "divergence not localized: {divergence:?}"
    );
    assert!(divergence.baseline_event.is_some() || divergence.perturbed_event.is_some());
    assert!(outcome.events_compared > 0);
}

#[test]
fn unknown_config_is_an_error_not_a_pass() {
    let err = check("no-such-config", 0, false).unwrap_err();
    assert!(err.contains("no-such-config"));
}

#[test]
fn named_configs_differ_in_sharing_only() {
    let (shared, _) = named_config("shared-l2").unwrap();
    let (private, _) = named_config("private-l2").unwrap();
    assert_eq!(shared.cores, private.cores);
    assert_ne!(
        format!("{:?}", shared.sharing),
        format!("{:?}", private.sharing)
    );
}
