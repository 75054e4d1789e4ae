//! Output checks. Each takes the program's output as text or bytes and
//! returns how many items it compared, or an error naming the cell and
//! task that disagree. A mismatch fails the run.

use fiq_core::json::Json;
use std::collections::BTreeMap;

/// (cell label, tool, category): the identity every record line carries.
type CellKey = (String, String, String);

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("record line lacks `{key}`"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("record field `{key}` is not a string"))
}

fn num(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("record field `{key}` is not a number"))
}

fn cell_key(v: &Json) -> Result<CellKey, String> {
    Ok((text(v, "cell")?, text(v, "tool")?, text(v, "category")?))
}

fn show(k: &CellKey) -> String {
    format!("{}/{}/{}", k.0, k.1, k.2)
}

/// Splits a record stream into its parsed header and a lazy iterator over
/// its injection lines (parsed one at a time, so a large stream is never
/// held as a tree).
fn parse_records<'a>(
    records: &'a str,
    what: &'a str,
) -> Result<(Json, impl Iterator<Item = Result<Json, String>> + 'a), String> {
    let mut lines = records.lines();
    let header = Json::parse(lines.next().ok_or(format!("{what}: empty record stream"))?)
        .map_err(|e| format!("{what} header: {e}"))?;
    let injections = lines
        .map(move |l| Json::parse(l).map_err(|e| format!("{what}: {e}")))
        .filter(|v| {
            v.as_ref().map_or(true, |v| {
                v.get("record").and_then(Json::as_str) == Some("injection")
            })
        });
    Ok((header, injections))
}

/// Golden outputs of one program at both levels must agree.
pub fn golden_agree(program: &str, llfi: &str, pinfi: &str) -> Result<usize, String> {
    if llfi == pinfi {
        Ok(1)
    } else {
        Err(format!(
            "{program}: LLFI and PINFI golden outputs differ ({} vs {} bytes)",
            llfi.len(),
            pinfi.len()
        ))
    }
}

/// Every injection in `reference` must appear in `timed` with the same
/// plan, outcome, and step count. Returns the number compared.
pub fn records_match(reference: &str, timed: &str) -> Result<usize, String> {
    let (_, timed_lines) = parse_records(timed, "timed records")?;
    let mut by_key: BTreeMap<(CellKey, u64), Json> = BTreeMap::new();
    for v in timed_lines {
        let v = v?;
        by_key.insert((cell_key(&v)?, num(&v, "injection")?), v);
    }
    let (_, reference_lines) = parse_records(reference, "reference records")?;
    let mut compared = 0;
    for r in reference_lines {
        let r = &r?;
        compared += 1;
        let key = (cell_key(r)?, num(r, "injection")?);
        let at = format!("cell {} injection {}", show(&key.0), key.1);
        let t = by_key
            .get(&key)
            .ok_or_else(|| format!("{at}: missing from the timed records"))?;
        for f in ["plan", "outcome", "steps"] {
            if field(r, f)? != field(t, f)? {
                return Err(format!(
                    "{at} (task {}): `{f}` is {} in the timed run but {} in the reference run",
                    num(t, "task")?,
                    field(t, f)?,
                    field(r, f)?
                ));
            }
        }
    }
    Ok(compared)
}

/// `actual` must equal `expected` byte for byte; returns the number of
/// lines compared. On a mismatch the error names the first differing
/// byte, its line, and that line's task.
pub fn same_bytes(what: &str, expected: &[u8], actual: &[u8]) -> Result<usize, String> {
    if expected == actual {
        return Ok(expected.iter().filter(|&&b| b == b'\n').count());
    }
    let at = expected
        .iter()
        .zip(actual)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    let line_no = expected[..at].iter().filter(|&&b| b == b'\n').count();
    let task = String::from_utf8_lossy(expected)
        .lines()
        .nth(line_no)
        .and_then(|l| Json::parse(l).ok())
        .and_then(|v| v.get("task").and_then(Json::as_u64))
        .map_or(String::new(), |t| format!(", task {t}"));
    Err(format!(
        "{what}: first difference at byte {at} (line {}{task}); {} vs {} bytes",
        line_no + 1,
        expected.len(),
        actual.len()
    ))
}

/// Exact-collapse record stream: each cell's class-weighted record total
/// must equal the fault space its header declares. Returns the number of
/// cells checked.
pub fn class_totals(records: &str) -> Result<usize, String> {
    let (header, lines) = parse_records(records, "exact records")?;
    let cells = header
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("exact records header lacks `cells`")?;
    let mut totals: BTreeMap<CellKey, (u64, u64)> = BTreeMap::new();
    for c in cells {
        let key = (text(c, "label")?, text(c, "tool")?, text(c, "category")?);
        totals.insert(key, (num(c, "space")?, 0));
    }
    for v in lines {
        let v = &v?;
        let key = cell_key(v)?;
        let task = num(v, "task")?;
        let slot = totals
            .get_mut(&key)
            .ok_or_else(|| format!("task {task}: record for unknown cell {}", show(&key)))?;
        slot.1 += num(v, "class_size")?;
    }
    for (key, (space, sum)) in &totals {
        if space != sum {
            return Err(format!(
                "cell {}: class-weighted total {sum} differs from its fault space {space}",
                show(key)
            ));
        }
    }
    Ok(totals.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiq_core::{
        profile_llfi, profile_llfi_with_snapshots, profile_pinfi, profile_pinfi_with_snapshots,
        run_campaign, CampaignConfig, Category, CellSpec, Collapse, EngineOptions, SnapshotCache,
        Substrate,
    };
    use std::path::Path;
    use std::sync::Arc;

    const SRC: &str = "int g[8];
double d;
int main() {
  int s = 0;
  for (int i = 0; i < 24; i += 1) {
    g[i & 7] = g[i & 7] + i * 3;
    s += g[i & 7];
    d = d + (double)s * 0.5;
  }
  print_i64(s);
  print_f64(d);
  return 0;
}
";

    struct Streams {
        records: String,
        divergence: String,
    }

    /// Runs a two-cell campaign on the small program above and returns
    /// its record and divergence streams.
    fn campaign(dir: &Path, snapshots: bool, collapse: Collapse, threads: usize) -> Streams {
        let mut module = fiq_frontend::compile("small", SRC).expect("compiles");
        fiq_opt::optimize_module(&mut module);
        let prog = fiq_backend::lower_module(&module, Default::default()).expect("lowers");
        let lp = profile_llfi(&module, Default::default()).expect("llfi profile");
        let pp = profile_pinfi(&prog, Default::default()).expect("pinfi profile");
        let (ls, ps) = if snapshots {
            let (_, ls) =
                profile_llfi_with_snapshots(&module, Default::default(), lp.golden_steps / 16)
                    .expect("llfi snapshots");
            let (_, ps) =
                profile_pinfi_with_snapshots(&prog, Default::default(), pp.golden_steps / 16)
                    .expect("pinfi snapshots");
            (
                Some(Arc::new(SnapshotCache::Llfi(ls))),
                Some(Arc::new(SnapshotCache::Pinfi(ps))),
            )
        } else {
            (None, None)
        };
        let cells = [
            CellSpec {
                label: "small".into(),
                category: Category::All,
                substrate: Substrate::Llfi {
                    module: &module,
                    profile: &lp,
                },
                snapshots: ls,
            },
            CellSpec {
                label: "small".into(),
                category: Category::All,
                substrate: Substrate::Pinfi {
                    prog: &prog,
                    profile: &pp,
                },
                snapshots: ps,
            },
        ];
        let cfg = CampaignConfig {
            injections: 40,
            seed: 5,
            threads,
            ..CampaignConfig::default()
        };
        let records = dir.join("records.jsonl");
        let divergence = dir.join("divergence.jsonl");
        let opts = EngineOptions {
            records: Some(&records),
            divergence: Some(&divergence),
            fast_forward: snapshots,
            early_exit: snapshots,
            collapse,
            ..EngineOptions::default()
        };
        run_campaign(&cells, &cfg, &opts).expect("campaign runs");
        Streams {
            records: std::fs::read_to_string(&records).expect("records"),
            divergence: std::fs::read_to_string(&divergence).expect("divergence"),
        }
    }

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fiq-ledger-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// Replaces the first occurrence of `from` after byte `after`.
    fn replace_after(s: &str, after: usize, from: &str, to: &str) -> String {
        let at = after + s[after..].find(from).expect("pattern present");
        format!("{}{to}{}", &s[..at], &s[at + from.len()..])
    }

    #[test]
    fn golden_check_rejects_differing_outputs() {
        assert_eq!(golden_agree("p", "1\n2\n", "1\n2\n"), Ok(1));
        let err = golden_agree("p", "1\n2\n", "1\n3\n").unwrap_err();
        assert!(err.contains("p:"), "{err}");
    }

    #[test]
    fn record_check_rejects_one_flipped_outcome() {
        let dir = tempdir("flip");
        let timed = campaign(&dir, true, Collapse::Sampled, 2);
        let reference = campaign(&dir, false, Collapse::Sampled, 1);
        assert_eq!(records_match(&reference.records, &timed.records), Ok(80));

        // Flip the outcome of the tenth injection record.
        let tenth = timed
            .records
            .match_indices("\"record\":\"injection\"")
            .nth(9)
            .unwrap()
            .0;
        let line_end = tenth + timed.records[tenth..].find('\n').unwrap();
        let line = &timed.records[tenth..line_end];
        let outcome = ["benign", "sdc", "crash", "hang"]
            .into_iter()
            .find(|o| line.contains(&format!("\"outcome\":\"{o}\"")))
            .expect("known outcome");
        let flipped = if outcome == "sdc" { "crash" } else { "sdc" };
        let corrupt = replace_after(
            &timed.records,
            tenth,
            &format!("\"outcome\":\"{outcome}\""),
            &format!("\"outcome\":\"{flipped}\""),
        );
        let err = records_match(&reference.records, &corrupt).unwrap_err();
        assert!(
            err.contains("cell small/") && err.contains("(task 9)"),
            "{err}"
        );
        assert!(err.contains("`outcome`"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn stream_check_rejects_one_changed_divergence_byte() {
        let dir = tempdir("div");
        let merged = campaign(&dir, true, Collapse::Sampled, 1).divergence;
        let single = campaign(&dir, true, Collapse::Sampled, 2).divergence;
        assert!(merged.lines().count() > 10);
        assert_eq!(
            same_bytes("divergence", single.as_bytes(), merged.as_bytes()),
            Ok(merged.lines().count())
        );

        let mut corrupt = merged.clone().into_bytes();
        let third = merged
            .match_indices("\"task\":2,")
            .next()
            .expect("task 2 line")
            .0;
        let at = third + merged[third..].find('}').unwrap() - 1;
        corrupt[at] ^= 1;
        let err = same_bytes("divergence", single.as_bytes(), &corrupt).unwrap_err();
        assert!(
            err.contains(&format!("byte {at}")) && err.contains("task 2"),
            "{err}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn census_check_rejects_a_total_off_by_one() {
        let dir = tempdir("census");
        let records = campaign(&dir, false, Collapse::Exact, 2).records;
        assert_eq!(class_totals(&records), Ok(2));

        let first = records
            .find("\"class_size\":")
            .expect("exact records carry class sizes");
        let digits_at = first + "\"class_size\":".len();
        let len = records[digits_at..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap();
        let size: u64 = records[digits_at..digits_at + len].parse().unwrap();
        let corrupt = format!(
            "{}{}{}",
            &records[..digits_at],
            size + 1,
            &records[digits_at + len..]
        );
        let err = class_totals(&corrupt).unwrap_err();
        assert!(
            err.contains("cell small/llfi/all") && err.contains("class-weighted"),
            "{err}"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
