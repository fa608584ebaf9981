//! The documents may only name things the tree contains.
//!
//! `README.md`, `DESIGN.md`, `EXPERIMENTS.md`, `CHANGELOG.md` and the
//! verify skill are scanned for the tokens a deletion leaves dangling:
//! paths under `crates/` and `vendor/`, `BENCH_*.json` records,
//! `*_output.txt` captures, `repro` arms, and `<crate>::<module>` paths
//! into the workspace crates. Each must resolve to a directory, a file,
//! an arm of the `repro` binary or a module at HEAD, so a PR that
//! removes one of those and leaves its mention behind fails here.

use std::path::{Path, PathBuf};

const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CHANGELOG.md",
    ".claude/skills/verify/SKILL.md",
];

/// Workspace crates by the short name documents use (`crates/<name>`).
const CRATES: &[&str] = &[
    "core",
    "experiments",
    "netsim",
    "packet",
    "rabin",
    "tcp",
    "telemetry",
    "workload",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The longest prefix of `s` made of characters `keep` accepts.
fn take(s: &str, keep: impl Fn(char) -> bool) -> &str {
    &s[..s.find(|c| !keep(c)).unwrap_or(s.len())]
}

/// Every position in `text` where `needle` starts and the character
/// before it could not belong to the same word or path.
fn starts<'a>(text: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    text.match_indices(needle).filter_map(move |(at, _)| {
        let before = text[..at].chars().next_back();
        let joined = before.is_some_and(|c| is_ident(c) || c == '/' || c == '-' || c == ':');
        (!joined).then_some(at)
    })
}

/// Paths under `dir/` (`crates/core`, `crates/netsim/tests/x.rs`,
/// `crates/{rabin,packet}`): each must exist.
fn check_paths(doc: &str, text: &str, dir: &str, missing: &mut Vec<String>) {
    let prefix = format!("{dir}/");
    for at in starts(text, &prefix) {
        let rest = &text[at + prefix.len()..];
        let names: Vec<String> = match rest.strip_prefix('{') {
            Some(list) => take(list, |c| c != '}')
                .split(',')
                .map(|n| n.trim().to_string())
                .collect(),
            None => {
                let path = take(rest, |c| is_ident(c) || matches!(c, '/' | '.' | '-'));
                vec![path.trim_end_matches(['.', '/']).to_string()]
            }
        };
        for name in names.iter().filter(|n| !n.is_empty()) {
            if !root().join(dir).join(name).exists() {
                missing.push(format!("{doc}: {dir}/{name} does not exist"));
            }
        }
    }
}

/// `BENCH_<x>.json` and `<x>_output.txt`: files at the repository root.
fn check_root_files(doc: &str, text: &str, missing: &mut Vec<String>) {
    let word = |c: char| is_ident(c) || c == '.' || c == '*';
    let mut at = 0;
    while at < text.len() {
        let token = take(&text[at..], word);
        if token.is_empty() {
            at += text[at..].chars().next().map_or(1, char::len_utf8);
            continue;
        }
        at += token.len();
        let token = token.trim_end_matches('.');
        let record = token.starts_with("BENCH_") && token.ends_with(".json");
        let capture = token.ends_with("_output.txt");
        // `BENCH_*.json` names the family, not a file.
        if (record || capture) && !token.contains('*') && !root().join(token).is_file() {
            missing.push(format!("{doc}: {token} is not in the tree"));
        }
    }
}

/// The experiment names `repro` accepts, read from its `known` list.
fn repro_arms() -> Vec<String> {
    let src = std::fs::read_to_string(root().join("crates/experiments/src/bin/repro.rs"))
        .expect("repro source");
    let list = src
        .split_once("let known = [")
        .and_then(|(_, rest)| rest.split_once("];"))
        .expect("repro.rs declares its `known` experiments")
        .0;
    let mut arms: Vec<String> = list
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect();
    arms.push("verify-metrics".to_string());
    arms
}

/// `` `repro <arm>` `` spans and `--bin repro -- <arm>` command lines.
fn check_repro_arms(doc: &str, text: &str, arms: &[String], missing: &mut Vec<String>) {
    let mut invocations: Vec<&str> = text
        .split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| span.strip_prefix("repro "))
        .collect();
    invocations.extend(
        text.match_indices("--bin repro ")
            .map(|(at, m)| &text[at + m.len()..]),
    );
    for rest in invocations {
        let rest = rest.trim_start();
        let rest = rest.strip_prefix("-- ").unwrap_or(rest).trim_start();
        let arm = take(rest, |c| c.is_ascii_alphanumeric() || c == '-');
        // A flag or a placeholder (`repro --threads N`, `repro <x>`,
        // `repro …`) names no arm.
        if arm.is_empty() || arm.starts_with('-') {
            continue;
        }
        if !arms.iter().any(|a| a == arm) {
            missing.push(format!("{doc}: `repro {arm}` is not an experiment"));
        }
    }
}

/// Does any source file of `krate` contain `needle`?
fn crate_source_has(krate: &str, needle: &str) -> bool {
    fn walk(dir: &Path, needle: &str) -> bool {
        std::fs::read_dir(dir).is_ok_and(|entries| {
            entries.flatten().any(|e| {
                let path = e.path();
                if path.is_dir() {
                    walk(&path, needle)
                } else {
                    std::fs::read_to_string(&path).is_ok_and(|s| s.contains(needle))
                }
            })
        })
    }
    walk(&root().join("crates").join(krate).join("src"), needle)
}

/// Does `source` use `name` as a whole word outside its comments?
fn code_names(source: &str, name: &str) -> bool {
    source
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .any(|line| line.split(|c| !is_ident(c)).any(|word| word == name))
}

/// `<crate>::<module>[::<module>…]`: a lower-case segment must be a
/// module file or a name the module before it mentions (a function, a
/// re-export); a capitalised one must be a type the crate declares.
fn check_module_paths(doc: &str, text: &str, missing: &mut Vec<String>) {
    for krate in CRATES {
        let prefix = format!("{krate}::");
        for at in starts(text, &prefix) {
            let path = take(&text[at + prefix.len()..], |c| is_ident(c) || c == ':');
            let mut dir = root().join("crates").join(krate).join("src");
            let mut file = dir.join("lib.rs");
            for seg in path.split("::").filter(|s| !s.is_empty()) {
                let found = if seg.starts_with(char::is_uppercase) {
                    ["struct", "enum", "trait", "type", "const", "static"]
                        .iter()
                        .any(|kw| crate_source_has(krate, &format!("{kw} {seg}")))
                } else if dir.join(format!("{seg}.rs")).is_file() {
                    file = dir.join(format!("{seg}.rs"));
                    dir = dir.join(seg);
                    true
                } else if dir.join(seg).join("mod.rs").is_file() {
                    dir = dir.join(seg);
                    file = dir.join("mod.rs");
                    true
                } else {
                    std::fs::read_to_string(&file).is_ok_and(|s| code_names(&s, seg))
                };
                if !found {
                    missing.push(format!("{doc}: {krate}::{path} — no `{seg}` there"));
                    break;
                }
            }
        }
    }
}

#[test]
fn documents_name_only_what_the_tree_contains() {
    let arms = repro_arms();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc))
            .unwrap_or_else(|e| panic!("{doc} must be readable: {e}"));
        check_paths(doc, &text, "crates", &mut missing);
        check_paths(doc, &text, "vendor", &mut missing);
        check_root_files(doc, &text, &mut missing);
        check_repro_arms(doc, &text, &arms, &mut missing);
        check_module_paths(doc, &text, &mut missing);
    }
    assert!(
        missing.is_empty(),
        "documents name things the tree does not contain:\n  {}",
        missing.join("\n  ")
    );
}

/// `repro --help` exits 0 and lists exactly the experiments the binary
/// accepts and exactly the flags its parser compares against; an
/// unknown flag gets the same text on stderr and exit 2.
#[test]
fn repro_help_lists_exactly_the_arms_and_flags_that_exist() {
    let repro = |arg: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(arg)
            .output()
            .expect("run repro")
    };
    let help = repro("--help");
    assert_eq!(help.status.code(), Some(0));
    assert_eq!(repro("-h").stdout, help.stdout);
    let usage = String::from_utf8(help.stdout).expect("utf-8 usage");

    // Entries are indented two spaces, their continuation lines more.
    let entries = |from: &str, to: &str| -> Vec<String> {
        let section = usage.split_once(from).expect(from).1;
        let section = section.split_once(to).expect(to).0;
        section
            .lines()
            .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
            .map(|l| take(l.trim_start(), |c| !c.is_whitespace() && c != ',').to_string())
            .collect()
    };
    let mut arms = repro_arms();
    arms.retain(|a| a != "verify-metrics");
    assert_eq!(entries("experiments:\n", "\nflags:"), arms);

    let src = std::fs::read_to_string(root().join("crates/experiments/src/bin/repro.rs"))
        .expect("repro source");
    let mut parsed: Vec<String> = src
        .match_indices("arg == \"--")
        .map(|(at, m)| format!("--{}", take(&src[at + m.len()..], |c| c != '"')))
        .filter(|f| f != "--require") // belongs to verify-metrics, listed with it
        .collect();
    parsed.sort();
    let mut listed = entries("flags:\n", "\nverify-metrics");
    listed.sort();
    assert_eq!(listed, parsed);
    assert!(usage.contains("--require"));

    let unknown = repro("--no-such-flag");
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains(&usage));
}

#[test]
fn the_scanner_sees_each_kind_of_token() {
    let text = "see `crates/gone`, vendor/gone, crates/{rabin,nope}, crates/core/src/gone.rs, \
                BENCH_gone.json, BENCH_*.json, gone_output.txt, `repro gone --quick`, \
                `repro --threads 2`, `repro fig6`, --bin repro -- gone2, `core::gone`, \
                `core::policy::naive`, `experiments::stall`, `experiments::campaign::Campaign`, \
                `netsim::replay_schedule`, std::core::fmt";
    let mut missing = Vec::new();
    check_paths("t", text, "crates", &mut missing);
    check_paths("t", text, "vendor", &mut missing);
    check_root_files("t", text, &mut missing);
    check_repro_arms("t", text, &repro_arms(), &mut missing);
    check_module_paths("t", text, &mut missing);
    let expected = [
        "t: crates/gone does not exist",
        "t: crates/nope does not exist",
        "t: crates/core/src/gone.rs does not exist",
        "t: vendor/gone does not exist",
        "t: BENCH_gone.json is not in the tree",
        "t: gone_output.txt is not in the tree",
        "t: `repro gone` is not an experiment",
        "t: `repro gone2` is not an experiment",
        "t: core::gone — no `gone` there",
        "t: experiments::stall — no `stall` there",
    ];
    assert_eq!(missing, expected);
}
