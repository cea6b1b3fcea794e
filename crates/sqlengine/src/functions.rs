//! Scalar SQL functions supported by the expression evaluator.

use crate::error::{SqlError, SqlResult};
use crate::value::Value;

/// Evaluates a scalar function call on already-evaluated arguments.
pub fn eval_scalar_function(name: &str, args: &[Value]) -> SqlResult<Value> {
    match name {
        "LENGTH" => {
            expect_arity(name, args, 1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Text(s) => Value::Integer(s.chars().count() as i64),
                other => Value::Integer(other.render().chars().count() as i64),
            })
        }
        "UPPER" => {
            expect_arity(name, args, 1)?;
            Ok(map_text(&args[0], |s| s.to_uppercase()))
        }
        "LOWER" => {
            expect_arity(name, args, 1)?;
            Ok(map_text(&args[0], |s| s.to_lowercase()))
        }
        "TRIM" => {
            expect_arity(name, args, 1)?;
            Ok(map_text(&args[0], |s| s.trim().to_string()))
        }
        "ABS" => {
            expect_arity(name, args, 1)?;
            Ok(match args[0].coerce_numeric() {
                Value::Integer(i) => Value::Integer(
                    i.checked_abs()
                        .ok_or_else(|| SqlError::Execution("integer overflow".into()))?,
                ),
                Value::Real(r) => Value::Real(r.abs()),
                _ => Value::Null,
            })
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(SqlError::UnknownFunction("ROUND expects 1 or 2 arguments".into()));
            }
            let digits = if args.len() == 2 { args[1].as_i64().unwrap_or(0) } else { 0 };
            Ok(match args[0].coerce_numeric() {
                Value::Integer(i) => Value::Real(i as f64),
                Value::Real(r) => {
                    let m = 10f64.powi(digits as i32);
                    Value::Real((r * m).round() / m)
                }
                _ => Value::Null,
            })
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(SqlError::UnknownFunction("SUBSTR expects 2 or 3 arguments".into()));
            }
            let s = match &args[0] {
                Value::Null => return Ok(Value::Null),
                v => v.render(),
            };
            let chars: Vec<char> = s.chars().collect();
            let start = args[1].as_i64().unwrap_or(1);
            // SQLite SUBSTR is 1-based; negative counts from the end.
            let begin = if start > 0 {
                (start - 1) as usize
            } else if start < 0 {
                chars.len().saturating_sub(start.unsigned_abs() as usize)
            } else {
                0
            };
            let len = if args.len() == 3 {
                args[2].as_i64().unwrap_or(0).max(0) as usize
            } else {
                chars.len().saturating_sub(begin)
            };
            let out: String = chars.iter().skip(begin).take(len).collect();
            Ok(Value::Text(out))
        }
        "INSTR" => {
            expect_arity(name, args, 2)?;
            let (h, n) = match (&args[0], &args[1]) {
                (Value::Null, _) | (_, Value::Null) => return Ok(Value::Null),
                (a, b) => (a.render(), b.render()),
            };
            Ok(Value::Integer(h.find(&n).map(|p| p as i64 + 1).unwrap_or(0)))
        }
        "REPLACE" => {
            expect_arity(name, args, 3)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            Ok(Value::Text(args[0].render().replace(&args[1].render(), &args[2].render())))
        }
        "COALESCE" | "IFNULL" => {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        "NULLIF" => {
            expect_arity(name, args, 2)?;
            if !args[0].is_null() && args[0].grouping_eq(&args[1]) {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        "IIF" => {
            expect_arity(name, args, 3)?;
            Ok(if args[0].to_truth().is_true() { args[1].clone() } else { args[2].clone() })
        }
        "STRFTIME" => {
            expect_arity(name, args, 2)?;
            strftime(&args[0], &args[1])
        }
        "MIN2" | "MAX2" => {
            // two-argument scalar min/max (exposed for generated SQL robustness)
            expect_arity(name, args, 2)?;
            let ord = args[0].sql_cmp(&args[1]);
            Ok(match ord {
                None => Value::Null,
                Some(o) => {
                    let pick_first = if name == "MIN2" { o.is_le() } else { o.is_ge() };
                    if pick_first {
                        args[0].clone()
                    } else {
                        args[1].clone()
                    }
                }
            })
        }
        other => Err(SqlError::UnknownFunction(other.to_string())),
    }
}

fn expect_arity(name: &str, args: &[Value], n: usize) -> SqlResult<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(SqlError::UnknownFunction(format!("{name} expects {n} arguments, got {}", args.len())))
    }
}

fn map_text(v: &Value, f: impl Fn(&str) -> String) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Text(s) => Value::Text(f(s)),
        other => Value::Text(f(&other.render())),
    }
}

/// Minimal STRFTIME supporting `%Y`, `%m`, `%d` over ISO `YYYY-MM-DD` dates,
/// which is what BIRD-style gold SQL uses for birthday / date filters.
fn strftime(format: &Value, date: &Value) -> SqlResult<Value> {
    let (fmt, d) = match (format, date) {
        (Value::Null, _) | (_, Value::Null) => return Ok(Value::Null),
        (f, d) => (f.render(), d.render()),
    };
    let parts: Vec<&str> = d.split('-').collect();
    if parts.len() < 3 {
        return Ok(Value::Null);
    }
    // The first two characters, not bytes: any text column can reach here.
    let day: String = parts[2].chars().take(2).collect();
    let (year, month) = (parts[0], parts[1]);
    let out = fmt.replace("%Y", year).replace("%m", month).replace("%d", &day);
    Ok(Value::Text(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_upper_lower_trim() {
        assert_eq!(eval_scalar_function("LENGTH", &["abc".into()]).unwrap(), Value::Integer(3));
        assert_eq!(eval_scalar_function("UPPER", &["abc".into()]).unwrap(), Value::text("ABC"));
        assert_eq!(eval_scalar_function("LOWER", &["AbC".into()]).unwrap(), Value::text("abc"));
        assert_eq!(eval_scalar_function("TRIM", &["  x ".into()]).unwrap(), Value::text("x"));
        assert!(eval_scalar_function("LENGTH", &[Value::Null]).unwrap().is_null());
    }

    #[test]
    fn round_and_abs() {
        assert_eq!(
            eval_scalar_function("ROUND", &[Value::Real(1.23456), Value::Integer(2)]).unwrap(),
            Value::Real(1.23)
        );
        assert_eq!(eval_scalar_function("ABS", &[Value::Integer(-5)]).unwrap(), Value::Integer(5));
        // SQLite: `ABS(-9223372036854775807 - 1)` is an integer overflow error.
        assert_eq!(
            eval_scalar_function("ABS", &[Value::Integer(i64::MIN)]),
            Err(SqlError::Execution("integer overflow".into()))
        );
        assert_eq!(
            eval_scalar_function("ABS", &[Value::Integer(-i64::MAX)]).unwrap(),
            Value::Integer(i64::MAX)
        );
    }

    #[test]
    fn substr_one_based_and_negative() {
        assert_eq!(
            eval_scalar_function("SUBSTR", &["abcdef".into(), 2.into(), 3.into()]).unwrap(),
            Value::text("bcd")
        );
        assert_eq!(
            eval_scalar_function("SUBSTR", &["abcdef".into(), (-2).into()]).unwrap(),
            Value::text("ef")
        );
    }

    #[test]
    fn instr_and_replace() {
        assert_eq!(
            eval_scalar_function("INSTR", &["hello".into(), "ll".into()]).unwrap(),
            Value::Integer(3)
        );
        assert_eq!(
            eval_scalar_function("REPLACE", &["a-b".into(), "-".into(), "_".into()]).unwrap(),
            Value::text("a_b")
        );
    }

    #[test]
    fn coalesce_iif_nullif() {
        assert_eq!(
            eval_scalar_function("COALESCE", &[Value::Null, Value::Integer(2)]).unwrap(),
            Value::Integer(2)
        );
        assert_eq!(
            eval_scalar_function("IIF", &[Value::Integer(1), "y".into(), "n".into()]).unwrap(),
            Value::text("y")
        );
        assert!(eval_scalar_function("NULLIF", &[Value::Integer(2), Value::Integer(2)])
            .unwrap()
            .is_null());
    }

    #[test]
    fn strftime_extracts_year() {
        assert_eq!(
            eval_scalar_function("STRFTIME", &["%Y".into(), "1996-05-13".into()]).unwrap(),
            Value::text("1996")
        );
    }

    #[test]
    fn strftime_day_takes_characters_not_bytes() {
        assert_eq!(
            eval_scalar_function("STRFTIME", &["%d".into(), "2020-01-€".into()]).unwrap(),
            Value::text("€")
        );
        assert_eq!(
            eval_scalar_function("STRFTIME", &["%d".into(), "2020-01-é5x".into()]).unwrap(),
            Value::text("é5")
        );
        assert_eq!(
            eval_scalar_function("STRFTIME", &["%d".into(), "1996-05-13 10:00".into()]).unwrap(),
            Value::text("13")
        );
    }

    #[test]
    fn unknown_function_is_error() {
        assert!(matches!(eval_scalar_function("MEDIAN", &[]), Err(SqlError::UnknownFunction(_))));
    }
}
