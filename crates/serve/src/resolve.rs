//! Model references: the one place the CLI and the daemon turn a
//! user-supplied model name into a model or a compile job.
//!
//! A reference is a `.slx`/`.mdl` path, the name of a bundled Table-1
//! benchmark (`frodo list`), or a synthetic-model spec
//! `random:<seed>:<size>[:edit:<k>]`. Files are read through
//! [`frodo_driver::load_model`], the reader the worker's `parse` stage
//! uses.

use frodo_codegen::GeneratorStyle;
use frodo_driver::JobSpec;
use frodo_model::Model;
use std::path::Path;

/// The path a reference names, when it has a model-file extension.
fn model_path(model_ref: &str) -> Option<&Path> {
    let path = Path::new(model_ref);
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("slx" | "mdl")
    )
    .then_some(path)
}

fn unknown(model_ref: &str) -> String {
    format!(
        "'{model_ref}' is not a .slx/.mdl path, a bundled benchmark (see 'frodo list'), \
         or a random:<seed>:<size>[:edit:<k>] spec"
    )
}

/// Resolves a model reference to its model, reading a file now.
///
/// # Errors
///
/// A file that cannot be read or parsed, or a reference of no known form.
pub fn resolve_model(model_ref: &str) -> Result<Model, String> {
    match model_path(model_ref) {
        Some(path) => frodo_driver::load_model(path, &frodo_obs::Trace::noop()),
        None => frodo_benchmodels::by_spec(model_ref).ok_or_else(|| unknown(model_ref)),
    }
}

/// Resolves a model reference to a compile job. A path becomes a
/// [`JobSpec::from_path`] job, so the file is parsed in the job's `parse`
/// stage; only its existence is checked here. A bundled benchmark gives a
/// job named after the benchmark, a `random:` spec one named after the
/// spec.
///
/// # Errors
///
/// A path to no file, or a reference of no known form.
pub fn job_spec_for(model_ref: &str, style: GeneratorStyle) -> Result<JobSpec, String> {
    if let Some(path) = model_path(model_ref) {
        if !path.exists() {
            return Err(format!("{model_ref}: no such file"));
        }
        return Ok(JobSpec::from_path(path, style));
    }
    if let Some(bench) = frodo_benchmodels::by_name(model_ref) {
        return Ok(JobSpec::from_model(bench.name, bench.model, style));
    }
    match frodo_benchmodels::by_spec(model_ref) {
        Some(model) => Ok(JobSpec::from_model(model_ref, model, style)),
        None => Err(unknown(model_ref)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_form_resolves_and_names_its_job() {
        assert_eq!(resolve_model("kalman").unwrap().name(), "Kalman");
        assert!(resolve_model("random:3:40").is_ok());
        assert_eq!(
            job_spec_for("kalman", GeneratorStyle::Frodo).unwrap().name,
            "Kalman"
        );
        assert_eq!(
            job_spec_for("random:3:40", GeneratorStyle::Frodo)
                .unwrap()
                .name,
            "random:3:40"
        );
    }

    #[test]
    fn bad_references_name_the_fault() {
        let err = job_spec_for("/nonexistent/m.slx", GeneratorStyle::Frodo).unwrap_err();
        assert!(err.contains("no such file"), "{err}");
        assert!(resolve_model("/nonexistent/m.mdl").is_err());
        for bad in ["NoSuchModel", "random:x:40", "m.txt"] {
            assert!(
                resolve_model(bad).unwrap_err().contains("frodo list"),
                "{bad}"
            );
            assert!(job_spec_for(bad, GeneratorStyle::Frodo).is_err(), "{bad}");
        }
    }
}
