//! The guest configuration path of §4.1.
//!
//! "The DAG actions are converted into Perl scripts, and the Production
//! Line writes each such script to one or more CD/ISO images that are then
//! connected to the cloned VM as virtual CD-ROMs. Once a CD-ROM is
//! connected to the guest, a daemon running within the VM mounts the
//! CD-ROM and executes the configuration scripts. Outputs are provided
//! back to the Production Line…"
//!
//! [`GuestScript`] is the unit handed to a hypervisor's `exec_script`: the
//! rendered script plus the output attributes it is expected to report.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// A rendered configuration script destined for one guest execution round.
///
/// The script borrows its fields from the configuration action it was
/// made from, so handing one to the hypervisor copies nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuestScript<'a> {
    /// The originating DAG node label (for error reporting).
    pub action_id: &'a str,
    /// The command the script runs.
    pub command: &'a str,
    /// Parameters rendered into the script.
    pub params: &'a BTreeMap<String, String>,
    /// Nominal duration from the DAG node, if any.
    pub nominal_ms: Option<u64>,
    /// Output attributes the script reports back.
    pub outputs: &'a [String],
}

impl GuestScript<'_> {
    /// Write the script body as it would be burned onto the ISO — a
    /// shell-ish transliteration of the prototype's generated Perl.
    fn write_body(&self, out: &mut impl Write) -> fmt::Result {
        out.write_str("#!/bin/sh\n")?;
        writeln!(out, "# vmplant action {}", self.action_id)?;
        for (k, v) in self.params {
            out.write_str("export VMP_")?;
            for c in k.chars().flat_map(char::to_uppercase) {
                out.write_char(c)?;
            }
            writeln!(out, "='{v}'")?;
        }
        writeln!(out, "vmp-run '{}'", self.command)?;
        for output in self.outputs {
            writeln!(out, "vmp-report '{output}'")?;
        }
        Ok(())
    }

    /// Approximate ISO payload size in bytes (script + ISO9660 envelope);
    /// the configuration ISOs are tiny, so this only matters for the file
    /// accounting invariants. The script is measured, not rendered.
    pub(crate) fn iso_bytes(&self) -> u64 {
        /// Counts the bytes written to it.
        struct Len(usize);
        impl Write for Len {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut len = Len(0);
        self.write_body(&mut len).expect("counting cannot fail");
        64 * 1024 + len.0 as u64
    }

    /// The simulated guest daemon's report for this script: one value per
    /// declared output. Values are synthesized deterministically from the
    /// action and a per-VM nonce; the plant overrides attributes it owns
    /// (e.g. the IP address allocated by the virtual network service).
    pub(crate) fn synthesize_outputs(&self, nonce: u64) -> Vec<(String, String)> {
        self.outputs
            .iter()
            .map(|name| {
                (
                    name.clone(),
                    format!("{}-{}-{:04x}", self.command, name, nonce & 0xffff),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GuestScript<'_> {
        /// The script body as it would be burned onto the ISO.
        fn render(&self) -> String {
            let mut out = String::new();
            self.write_body(&mut out).unwrap();
            out
        }
    }

    /// Run `f` on the `create-user` script reporting `outputs`.
    fn with_script<R>(outputs: &[&str], f: impl FnOnce(GuestScript<'_>) -> R) -> R {
        let params = [("name".to_owned(), "arijit".to_owned())].into();
        let outputs: Vec<String> = outputs.iter().map(|&o| o.to_owned()).collect();
        f(GuestScript {
            action_id: "E",
            command: "create-user",
            params: &params,
            nominal_ms: Some(1500),
            outputs: &outputs,
        })
    }

    #[test]
    fn render_includes_params_and_outputs() {
        let body = with_script(&["user_name"], |s| s.render());
        assert!(body.contains("VMP_NAME='arijit'"));
        assert!(body.contains("vmp-run 'create-user'"));
        assert!(body.contains("vmp-report 'user_name'"));
        assert!(body.starts_with("#!/bin/sh"));
    }

    #[test]
    fn iso_size_is_envelope_plus_script() {
        with_script(&["user_name", "home"], |s| {
            assert_eq!(s.iso_bytes(), 64 * 1024 + s.render().len() as u64);
        });
    }

    #[test]
    fn outputs_are_deterministic_per_nonce() {
        with_script(&["user_name"], |s| {
            assert_eq!(s.synthesize_outputs(7), s.synthesize_outputs(7));
            assert_ne!(s.synthesize_outputs(7), s.synthesize_outputs(8));
            let outs = s.synthesize_outputs(7);
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].0, "user_name");
            assert!(outs[0].1.starts_with("create-user-user_name-"));
        });
    }

    #[test]
    fn no_outputs_means_empty_report() {
        with_script(&[], |s| assert!(s.synthesize_outputs(1).is_empty()));
    }
}
