//! A day-in-the-life soak test: hours of simulated Poisson arrivals with
//! random VM lifetimes, mixed memory sizes and occasional migrations,
//! ending in an exact accounting audit. This is the kind of run a site
//! operator would use to qualify the middleware.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use vmplants::{SimSite, SiteConfig};
use vmplants_dag::graph::experiment_dag;
use vmplants_plant::VmId;
use vmplants_simkit::SimDuration;
use vmplants_virt::VmSpec;

#[test]
fn soak_two_hundred_requests_with_churn() {
    let mut site = SimSite::build(SiteConfig {
        seed: 20_040_106,
        ..SiteConfig::default()
    });
    let mut live: VecDeque<VmId> = VecDeque::new();
    let mut created = 0usize;
    let mut collected = 0usize;
    let mut migrated = 0usize;
    let mut latencies = Vec::new();

    for step in 0..200 {
        // Poisson-ish arrivals: advance a sampled gap between requests.
        let gap = site.rng.exponential(20.0);
        site.engine.advance(SimDuration::from_secs_f64(gap));

        // Mostly creations; collect when enough VMs are alive; a sprinkle
        // of migrations.
        let mem = [32u64, 64, 256][step % 3];
        match step % 10 {
            0..=5 => {
                let ad = site
                    .create_vm(VmSpec::mandrake(mem), experiment_dag("soak-user"))
                    .expect("creation succeeds throughout the soak");
                latencies.push(ad.get_f64("create_s").unwrap());
                live.push_back(VmId(ad.get_str("vmid").unwrap()));
                created += 1;
            }
            6..=8 => {
                if live.len() > 4 {
                    let id = live.pop_front().unwrap();
                    site.destroy_vm(&id).expect("collect succeeds");
                    collected += 1;
                } else {
                    let ad = site
                        .create_vm(VmSpec::mandrake(mem), experiment_dag("soak-user"))
                        .expect("creation succeeds");
                    latencies.push(ad.get_f64("create_s").unwrap());
                    live.push_back(VmId(ad.get_str("vmid").unwrap()));
                    created += 1;
                }
            }
            _ => {
                if let Some(id) = live.front().cloned() {
                    let current = site.query_vm(&id).unwrap();
                    let source = current.get_str("plant").unwrap();
                    let target = site
                        .plants
                        .iter()
                        .map(|p| p.name())
                        .find(|n| *n != source)
                        .unwrap();
                    let out = Rc::new(RefCell::new(None));
                    let out2 = Rc::clone(&out);
                    site.shop.migrate(
                        &mut site.engine,
                        &id,
                        target,
                        Box::new(move |_, res| {
                            *out2.borrow_mut() = Some(res);
                        }),
                    );
                    site.engine.run();
                    let res = Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap();
                    // Network exhaustion on the target is a legal refusal;
                    // anything else must succeed.
                    if res.is_ok() {
                        migrated += 1;
                    }
                }
            }
        }
    }

    // The site has been up for simulated hours.
    assert!(
        site.engine.now().as_secs_f64() > 3600.0,
        "soak covered {:.0}s of virtual time",
        site.engine.now().as_secs_f64()
    );
    assert!(created >= 120, "created {created}");
    assert!(collected >= 40, "collected {collected}");
    assert!(migrated >= 5, "migrated {migrated}");

    // Exact accounting at the end of the day.
    assert_eq!(site.total_vms(), live.len());
    assert_eq!(
        site.domains.allocated_count("ufl.edu"),
        live.len(),
        "one IP per live VM, none leaked"
    );
    let host_vms: usize = site.plants.iter().map(|p| p.host().vm_count()).sum();
    assert_eq!(host_vms, live.len());

    // Every survivor is queryable and running.
    for id in &live {
        let ad = site.query_vm(id).expect("survivor queryable");
        assert_eq!(ad.get_str("state"), Some("running".into()));
    }

    // Latency envelope held across the whole day (paper: 17-85 s; our
    // calibrated envelope is a touch wider under churn).
    let min = latencies.iter().copied().fold(f64::INFINITY, f64::min);
    let max = latencies.iter().copied().fold(0.0f64, f64::max);
    assert!(min > 15.0, "min latency {min}");
    assert!(max < 110.0, "max latency {max}");

    // Drain everything: the site returns to exactly zero.
    while let Some(id) = live.pop_front() {
        site.destroy_vm(&id).expect("final drain");
    }
    assert_eq!(site.total_vms(), 0);
    assert_eq!(site.domains.allocated_count("ufl.edu"), 0);
    for plant in &site.plants {
        assert_eq!(plant.host().vm_count(), 0);
        assert_eq!(plant.host().committed_mb(), 0);
        assert_eq!(plant.host().disk.file_count(), 0, "{} leaked files", plant.name());
        assert_eq!(plant.networks_in_use(), 0);
    }
}
