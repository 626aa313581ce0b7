//! Model references: the one place the CLI and the daemon turn a
//! user-supplied model name into a model or a compile job.
//!
//! A reference is a `.slx`/`.mdl` path, the name of a bundled Table-1
//! benchmark (`frodo list`), or a synthetic-model spec
//! `random:<seed>:<size>[:edit:<k>]`. Files are read through
//! [`frodo_driver::load_model`], the reader the worker's `parse` stage
//! uses. [`job_name`] names the job a reference compiles as, on every
//! path, and [`output_files`] the C files a batch writes under `-o`.

use frodo_codegen::GeneratorStyle;
use frodo_driver::JobSpec;
use frodo_model::Model;
use std::collections::HashMap;
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

/// The name a reference's job compiles, reports and writes its C under,
/// for `frodo batch`, `frodo batch --incremental` and every daemon verb:
/// a path's file stem, a bundled benchmark's canonical name (`kalman`
/// gives `Kalman`), or else the reference itself (a `random:` spec).
pub fn job_name(model_ref: &str) -> String {
    if let Some(path) = model_path(model_ref) {
        if let Some(stem) = path.file_stem() {
            return stem.to_string_lossy().into_owned();
        }
    }
    frodo_benchmodels::table1()
        .iter()
        .find(|row| row.name.eq_ignore_ascii_case(model_ref))
        .map_or_else(|| model_ref.to_string(), |row| row.name.to_string())
}

/// Resolves a model reference to a compile job named by [`job_name`]. A
/// path becomes a [`JobSpec::from_path`] job, so the file is parsed in
/// the job's `parse` stage; only its existence is checked here.
///
/// # Errors
///
/// A path to no file, or a reference of no known form.
pub fn job_spec_for(model_ref: &str, style: GeneratorStyle) -> Result<JobSpec, String> {
    let name = job_name(model_ref);
    if let Some(path) = model_path(model_ref) {
        if !path.exists() {
            return Err(format!("{model_ref}: no such file"));
        }
        return Ok(JobSpec {
            name,
            ..JobSpec::from_path(path, style)
        });
    }
    match frodo_benchmodels::by_spec(model_ref) {
        Some(model) => Ok(JobSpec::from_model(name, model, style)),
        None => Err(unknown(model_ref)),
    }
}

/// The file a job's C is written to under `-o DIR`: the job name with
/// every `/`, `\` and `:` replaced by `_`, then `_<style>.c`.
fn output_file_name(job: &str, style: GeneratorStyle) -> String {
    format!(
        "{}_{}.c",
        job.replace(['/', '\\', ':'], "_"),
        style.label().to_ascii_lowercase()
    )
}

/// The files a batch writes under `dir`, one per `(reference, job name,
/// style)` in order. `frodo batch`, `frodo batch --incremental` and
/// `frodo client batch` all name their files here.
///
/// # Errors
///
/// Two jobs that would write one file, naming both references, so that
/// no job's C silently overwrites another's.
pub fn output_files<'a>(
    dir: &str,
    jobs: impl IntoIterator<Item = (&'a str, &'a str, GeneratorStyle)>,
) -> Result<Vec<String>, String> {
    let mut writers: HashMap<String, &str> = HashMap::new();
    let mut files = Vec::new();
    for (reference, job, style) in jobs {
        let file = format!("{dir}/{}", output_file_name(job, style));
        if let Some(first) = writers.insert(file.clone(), reference) {
            return Err(format!(
                "{first} and {reference} would both write {file}; no file written"
            ));
        }
        files.push(file);
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_form_resolves_and_names_its_job() {
        assert_eq!(job_name("kalman"), "Kalman");
        assert_eq!(job_name("/tmp/x/K.mdl"), "K");
        assert_eq!(job_name("a/HT.slx"), "HT");
        assert_eq!(job_name("random:42:2000:edit:1"), "random:42:2000:edit:1");
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
    fn output_files_are_named_one_way_and_never_shared() {
        assert_eq!(
            output_file_name("random:3:40", GeneratorStyle::Frodo),
            "random_3_40_frodo.c"
        );
        assert_eq!(
            output_file_name("a/b\\c", GeneratorStyle::Hcg),
            "a_b_c_hcg.c"
        );
        let files = output_files(
            "d",
            [
                ("HT", "HT", GeneratorStyle::Frodo),
                ("HT", "HT", GeneratorStyle::Hcg),
            ],
        )
        .unwrap();
        assert_eq!(files, ["d/HT_frodo.c", "d/HT_hcg.c"]);
        let err = output_files(
            "d",
            [
                ("a/HT.slx", "HT", GeneratorStyle::Frodo),
                ("b/HT.slx", "HT", GeneratorStyle::Frodo),
            ],
        )
        .unwrap_err();
        assert!(err.contains("a/HT.slx and b/HT.slx"), "{err}");
        assert!(err.contains("d/HT_frodo.c"), "{err}");
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
