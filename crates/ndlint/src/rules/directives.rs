//! Directive hygiene: a typo'd `// ndlint:` comment must not silently
//! disable a rule, so malformed directives (a reason-less allow among
//! them) and unknown rule names are findings in their own right.

use crate::scan::SourceFile;
use crate::{Finding, KNOWN_RULES};

pub fn check(sf: &SourceFile, out: &mut Vec<Finding>) {
    for (line, why) in &sf.lexed.malformed {
        out.push(Finding {
            rule: "directive",
            file: sf.rel.clone(),
            line: *line,
            col: 0,
            message: format!("malformed ndlint directive: {why}"),
        });
    }
    for ann in &sf.lexed.annotations {
        if !KNOWN_RULES.contains(&ann.rule.as_str()) {
            out.push(Finding {
                rule: "directive",
                file: sf.rel.clone(),
                line: ann.line,
                col: 0,
                message: format!(
                    "unknown rule `{}` in ndlint allow (known: {})",
                    ann.rule,
                    KNOWN_RULES.join(", ")
                ),
            });
        }
    }
}
