//! The paper's Figure 1(b) scenario: textual claims ("Does Meagan Good play a
//! role in Stomp the Yard?") checked against the lake's tables, comparing the
//! generic LLM verifier with the local PASTA model — the paper's Table 2
//! trade-off.
//!
//! Run with:
//! ```text
//! cargo run --release --example claim_verification
//! ```

use verifai::metrics::{paper_correct, Accuracy};
use verifai::{Verdict, VerifAi, VerifAiConfig};
use verifai_claims::ClaimGenConfig;
use verifai_datagen::{build, claim_workload, LakeSpec};
use verifai_lake::DataInstance;
use verifai_verify::{PastaVerifier, Verifier};

fn main() {
    let generated = build(&LakeSpec::tiny(42));
    let claims = claim_workload(&generated, 60, ClaimGenConfig::default());
    let system = VerifAi::build(generated, VerifAiConfig::default());
    let pasta = PastaVerifier::with_defaults();

    let mut chatgpt_acc = Accuracy::default();
    let mut pasta_acc = Accuracy::default();
    let mut shown = 0;

    for claim in &claims {
        let object = system.claim_object(claim);
        // The known-relevant evidence: the claim's source table.
        let table = system
            .lake()
            .table(claim.table)
            .expect("source table")
            .clone();
        let evidence = DataInstance::Table(table);
        let expected = if claim.label {
            Verdict::Verified
        } else {
            Verdict::Refuted
        };

        let chatgpt = system.llm().verify(&object, &evidence);
        chatgpt_acc.record(paper_correct(expected, chatgpt.verdict, false));
        let local = pasta.verify(&object, evidence.view());
        pasta_acc.record(paper_correct(expected, local.verdict, true));

        if shown < 4 {
            shown += 1;
            println!("claim: {}", claim.text);
            println!(
                "  ground truth: {}",
                if claim.label { "entailed" } else { "refuted" }
            );
            println!(
                "  chatgpt-sim: {} — {}",
                chatgpt.verdict, chatgpt.explanation
            );
            println!("  pasta:       {} — {}\n", local.verdict, local.explanation);
        }
    }

    println!(
        "=== (text, relevant table) over {} claims ===",
        claims.len()
    );
    println!("chatgpt-sim accuracy: {chatgpt_acc}   (paper: 0.75)");
    println!("pasta accuracy:       {pasta_acc}   (paper: 0.89)");
    println!();
    println!(
        "The local model wins on known-relevant tables (and keeps the data\n\
         private); the paper's Table 2 shows the LLM pulling ahead once the\n\
         evidence is open-domain retrieved — run the table2_verifier bench to\n\
         reproduce the crossover."
    );
}
