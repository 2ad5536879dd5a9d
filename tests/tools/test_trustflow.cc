/**
 * @file
 * trustflow self-tests: the lexer edge cases that feed the symbol
 * index, the annotation grammar extensions (secret / validator,
 * `-- note` trailers), the repo-wide call graph, the family-7/8
 * taint engine on in-memory sources, and the SARIF export shape.
 *
 * The fixture-tree golden lives in test_trustlint.cc; these tests
 * pin the engine's unit-level behavior so a golden drift can be
 * traced to the layer that moved.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "trustlint/dataflow.hh"
#include "trustlint/index.hh"
#include "trustlint/report.hh"
#include "trustlint/rules.hh"

namespace {

using trust::lint::analyzeFiles;
using trust::lint::buildIndex;
using trust::lint::Config;
using trust::lint::defaultConfig;
using trust::lint::extractFunctions;
using trust::lint::Finding;
using trust::lint::FunctionDef;
using trust::lint::lexSource;
using trust::lint::LexedFile;
using trust::lint::parseAnnotation;
using trust::lint::ParsedAnnotation;
using trust::lint::scanPath;
using trust::lint::SymbolIndex;
using trust::lint::TokKind;

/** Run families 7-8 over one in-memory file. */
std::vector<Finding>
flow(const std::string &relPath, const std::string &src)
{
    const std::vector<LexedFile> files = {lexSource(relPath, src)};
    return analyzeFiles(files, {relPath}, defaultConfig());
}

/** Run families 7-8 over two in-memory files. */
std::vector<Finding>
flow2(const std::string &pathA, const std::string &srcA,
      const std::string &pathB, const std::string &srcB)
{
    const std::vector<LexedFile> files = {lexSource(pathA, srcA),
                                          lexSource(pathB, srcB)};
    return analyzeFiles(files, {pathA, pathB}, defaultConfig());
}

std::set<std::string>
rulesOf(const std::vector<Finding> &findings)
{
    std::set<std::string> rules;
    for (const Finding &f : findings)
        rules.insert(f.rule);
    return rules;
}

bool
hasIdent(const LexedFile &file, const std::string &text)
{
    for (const auto &tok : file.tokens)
        if (tok.kind == TokKind::Identifier && tok.text == text)
            return true;
    return false;
}

// ---------------------------------------------------------------- //
// Lexer edge cases                                                  //
// ---------------------------------------------------------------- //

TEST(TrustflowLexer, RawStringPrefixVariantsAreOpaque)
{
    const auto lexed = lexSource("core/x.cc", R"src(
auto a = u8R"(rand() one)";
auto b = uR"(time(0) two)";
auto c = UR"(getenv three)";
auto d = LR"(srand four)";
auto e = R"q(system_clock )mismatch )q";
int live = 1;
)src");
    EXPECT_FALSE(hasIdent(lexed, "rand"));
    EXPECT_FALSE(hasIdent(lexed, "time"));
    EXPECT_FALSE(hasIdent(lexed, "getenv"));
    EXPECT_FALSE(hasIdent(lexed, "srand"));
    EXPECT_FALSE(hasIdent(lexed, "system_clock"));
    EXPECT_TRUE(hasIdent(lexed, "live"));
}

TEST(TrustflowLexer, IdentifierEndingInRStaysAnIdentifier)
{
    // `scalarR` ends in R but is not a raw-string prefix.
    const auto lexed =
        lexSource("core/x.cc", "int scalarR = 2; int other = scalarR;");
    EXPECT_TRUE(hasIdent(lexed, "scalarR"));
    EXPECT_TRUE(hasIdent(lexed, "other"));
}

TEST(TrustflowLexer, BackslashContinuationExtendsLineComment)
{
    const auto lexed = lexSource("core/x.cc",
                                 "// continued \\\n"
                                 "rand(); still comment\n"
                                 "int live = 1;\n");
    EXPECT_FALSE(hasIdent(lexed, "rand"));
    EXPECT_TRUE(hasIdent(lexed, "live"));
}

TEST(TrustflowLexer, CrlfBackslashContinuationAlsoExtends)
{
    const auto lexed = lexSource("core/x.cc",
                                 "// continued \\\r\n"
                                 "time(0); still comment\r\n"
                                 "int live = 1;\r\n");
    EXPECT_FALSE(hasIdent(lexed, "time"));
    EXPECT_TRUE(hasIdent(lexed, "live"));
}

TEST(TrustflowLexer, MacroContinuationSwallowsAllLines)
{
    const auto lexed = lexSource("core/x.cc",
                                 "#define SUM(a, b) \\\n"
                                 "    ((a) + rand() + \\\n"
                                 "     (b))\n"
                                 "int live = 1;\n");
    EXPECT_FALSE(hasIdent(lexed, "rand"));
    EXPECT_TRUE(hasIdent(lexed, "live"));
}

TEST(TrustflowLexer, DoubleSlashInsideStringIsNotAComment)
{
    const auto lexed = lexSource(
        "core/x.cc",
        "const char *u = \"https://x.test/y\"; int after = 1;");
    EXPECT_TRUE(hasIdent(lexed, "after"));
}

// ---------------------------------------------------------------- //
// Annotation grammar                                                //
// ---------------------------------------------------------------- //

TEST(TrustflowAnnotations, SecretAndValidatorParse)
{
    const ParsedAnnotation s =
        parseAnnotation({10, std::string("secret")});
    EXPECT_EQ(s.kind, ParsedAnnotation::Kind::Secret);

    const ParsedAnnotation v =
        parseAnnotation({11, std::string("validator")});
    EXPECT_EQ(v.kind, ParsedAnnotation::Kind::Validator);
}

TEST(TrustflowAnnotations, BareDirectivesTakeANoteTrailer)
{
    const ParsedAnnotation s =
        parseAnnotation({10, std::string("secret -- d mod (p-1)")});
    EXPECT_EQ(s.kind, ParsedAnnotation::Kind::Secret);

    const ParsedAnnotation bad =
        parseAnnotation({12, std::string("secretive")});
    EXPECT_EQ(bad.kind, ParsedAnnotation::Kind::Malformed);

    const ParsedAnnotation empty =
        parseAnnotation({13, std::string("secret --")});
    EXPECT_EQ(empty.kind, ParsedAnnotation::Kind::Malformed);
}

// ---------------------------------------------------------------- //
// Symbol index / call graph                                         //
// ---------------------------------------------------------------- //

TEST(TrustflowIndex, OverloadsShareABareNameEntry)
{
    const std::vector<LexedFile> files = {lexSource("crypto/o.cc", R"src(
int pick(int a) { return a; }
int pick(int a, int b) { return a + b; }
)src")};
    const SymbolIndex index = buildIndex(files, {"crypto/o.cc"});
    ASSERT_EQ(index.byName.count("pick"), 1u);
    EXPECT_EQ(index.byName.at("pick").size(), 2u);
    EXPECT_EQ(index.functions[index.byName.at("pick")[0]].def.params,
              std::vector<std::string>{"a"});
}

TEST(TrustflowIndex, QualifiedNamesResolveBeforeBareNames)
{
    const std::vector<LexedFile> files = {lexSource("crypto/q.cc", R"src(
int Alpha::score(int x) { return x; }
int Beta::score(int x, int y) { return x + y; }
)src")};
    const SymbolIndex index = buildIndex(files, {"crypto/q.cc"});
    const auto alpha = index.resolve("Alpha", "score");
    ASSERT_EQ(alpha.size(), 1u);
    EXPECT_EQ(index.functions[alpha[0]].def.params.size(), 1u);
    // Unknown qualifier falls back to every bare-name candidate.
    EXPECT_EQ(index.resolve("Gamma", "score").size(), 2u);
    // The standard library never links to repo functions.
    EXPECT_TRUE(index.resolve("std", "score").empty());
    EXPECT_TRUE(index.resolve("std::chrono", "score").empty());
}

TEST(TrustflowIndex, RecursionReachesAFixpointWithoutLooping)
{
    const auto findings = flow("crypto/r.cc", R"src(
// trustlint: secret
int draw();

int spiral(int depth)
{
    if (depth) // finding: tainted through the recursive call below
        return spiral(depth - 1);
    return 0;
}

int seed() { return spiral(draw()); }
)src");
    EXPECT_EQ(rulesOf(findings),
              std::set<std::string>{"secret-flow"});
}

TEST(TrustflowIndex, TrailingFieldAnnotationDoesNotTagNextFunction)
{
    // Regression: a trailing `secret` on a field two lines above an
    // inline method head must not mark the method's return secret.
    const auto findings = flow("crypto/t.cc", R"src(
struct Key
{
    int d; // trustlint: secret

    int width() const { return 32; }
};

int use(const Key &k)
{
    const int w = k.width();
    if (w) // clean: width() is not a secret source
        return 1;
    return 0;
}
)src");
    EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------- //
// Family 7: secret-flow                                             //
// ---------------------------------------------------------------- //

TEST(TrustflowSecret, AllFourShapesFire)
{
    const auto findings = flow("crypto/s.cc", R"src(
// trustlint: secret
int draw();
int table[16];

int shapes(const int *probe)
{
    const int k = draw();
    if (k) { }                  // branch
    for (int i = 0; i < k; ++i) // loop trip count
        table[k] = i;           // secret index
    return k == 3;              // non-constant-time compare
}
)src");
    EXPECT_EQ(findings.size(), 4u);
    EXPECT_EQ(rulesOf(findings),
              std::set<std::string>{"secret-flow"});
}

TEST(TrustflowSecret, SanctionedComparatorAndDeclassifiersAreClean)
{
    const auto findings = flow("crypto/c.cc", R"src(
namespace core {
bool constantTimeEqual(int a, int b);
}
struct Blob { int size() const; };
// trustlint: secret
Blob draw();

bool ok()
{
    const Blob k = draw();
    if (k.size() > 0) // clean: structural declassifier
        return core::constantTimeEqual(k.size(), 4);
    return false;
}
)src");
    EXPECT_TRUE(findings.empty());
}

TEST(TrustflowSecret, ScopeLimitsWhereFindingsEmit)
{
    // The same source outside crypto//trust/ stays silent: family 7
    // only gates the constant-time core.
    const std::string src = R"src(
// trustlint: secret
int draw();
int leak() { if (draw()) return 1; return 0; }
)src";
    EXPECT_FALSE(flow("crypto/in.cc", src).empty());
    EXPECT_TRUE(flow("core/out.cc", src).empty());
}

TEST(TrustflowSecret, StrongUpdateClearsOverwrittenLocals)
{
    const auto findings = flow("crypto/u.cc", R"src(
// trustlint: secret
int draw();

int reuse()
{
    int v = draw();
    v = 7;   // strong update: v is public again
    if (v)   // clean
        return 1;
    return 0;
}
)src");
    EXPECT_TRUE(findings.empty());
}

TEST(TrustflowSecret, FunctionHeadAllowCoversTheWholeBody)
{
    const auto findings = flow("crypto/a.cc", R"src(
// trustlint: secret
int draw();

// trustlint: allow(secret-flow) -- test waiver for the whole body
int waived()
{
    const int k = draw();
    if (k)
        return k == 2;
    return 0;
}
)src");
    EXPECT_TRUE(findings.empty());
}

TEST(TrustflowSecret, CrossTuTaintFlowsBothDirections)
{
    const auto findings = flow2("crypto/a.cc", R"src(
int produce();
int consume(int x);
int hop() { return consume(produce()); }
)src",
                                "crypto/b.cc", R"src(
// trustlint: secret
int produce() { return 9; }
int consume(int x)
{
    if (x) // finding: tainted by the caller in a.cc
        return 1;
    return 0;
}
)src");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "crypto/b.cc");
    EXPECT_EQ(findings[0].rule, "secret-flow");
}

// ---------------------------------------------------------------- //
// Family 8: untrusted-taint                                         //
// ---------------------------------------------------------------- //

TEST(TrustflowUntrusted, ParserOutputReachingSinkIsFlagged)
{
    const auto findings = flow("trust/p.cc", R"src(
struct Store { void putAccount(int a, int k); };
struct Msg { int account; };

// trustlint: untrusted-input
Msg readMsg(const unsigned char *b);

void ingest(Store &store, const unsigned char *b)
{
    const Msg m = readMsg(b);
    store.putAccount(m.account, 1); // finding
}
)src");
    EXPECT_EQ(rulesOf(findings),
              std::set<std::string>{"untrusted-taint"});
}

TEST(TrustflowUntrusted, ValidatorLaundersTheTaint)
{
    const auto findings = flow("trust/v.cc", R"src(
struct Store { void resetIdentity(int a); };
struct Msg { int account; };

// trustlint: untrusted-input
bool readMsg(const unsigned char *b, Msg *out);

// trustlint: validator
bool vet(const Msg &m);

void ingest(Store &store, const unsigned char *b)
{
    Msg m;
    if (!readMsg(b, &m))
        return;
    if (!vet(m))
        return;
    store.resetIdentity(m.account); // clean: vetted
}
)src");
    EXPECT_TRUE(findings.empty());
}

TEST(TrustflowUntrusted, ModExpExponentIsAPositionalSink)
{
    const auto findings = flow("trust/e.cc", R"src(
struct Big { };
Big modExp(const Big &b, const Big &e, const Big &m);

// trustlint: untrusted-input
Big readBig(const unsigned char *buf);

Big blind(const unsigned char *buf, const Big &base, const Big &mod)
{
    const Big e = readBig(buf);
    return modExp(base, e, mod); // finding: exponent position
}

Big fine(const unsigned char *buf, const Big &exp, const Big &mod)
{
    const Big b = readBig(buf);
    return modExp(b, exp, mod); // clean: base may be untrusted
}
)src");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "untrusted-taint");
}

// ---------------------------------------------------------------- //
// SARIF export                                                      //
// ---------------------------------------------------------------- //

TEST(TrustflowSarif, ReportHasTheStableShape)
{
    std::vector<Finding> findings;
    findings.push_back(
        {"secret-flow", "crypto/x.cc", 7, "branch on secret 'k'"});
    const std::string sarif = trust::lint::formatSarif(findings, 3);

    EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"name\":\"trustlint\""), std::string::npos);
    // Every family is in the rule catalog, findings or not.
    for (const char *id :
         {"determinism", "unordered-iter", "trust-boundary", "layering",
          "lock-order", "blocking-under-lock", "simd-intrinsics",
          "file-io", "annotation", "secret-flow", "untrusted-taint"})
        EXPECT_NE(sarif.find("\"id\":\"" + std::string(id) + "\""),
                  std::string::npos)
            << id;
    EXPECT_NE(sarif.find("\"uri\":\"crypto/x.cc\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\":7"), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\":\"secret-flow\""),
              std::string::npos);
}

TEST(TrustflowSarif, EscapesMessageText)
{
    std::vector<Finding> findings;
    findings.push_back({"annotation", "core/x.cc", 1,
                        "quote \" backslash \\ newline\ndone"});
    const std::string sarif = trust::lint::formatSarif(findings, 1);
    EXPECT_NE(sarif.find("quote \\\" backslash \\\\ newline\\ndone"),
              std::string::npos);
}

// ---------------------------------------------------------------- //
// The linter lints its own sources                                  //
// ---------------------------------------------------------------- //

TEST(TrustflowRepo, ToolsTreeIsClean)
{
    Config config = defaultConfig();
    config.excludePrefixes.push_back("trustlint/fixtures/");
    std::size_t filesScanned = 0;
    const auto findings =
        scanPath(std::string(TRUST_SOURCE_DIR) + "/tools", config,
                 &filesScanned);
    EXPECT_GE(filesScanned, 8u);
    EXPECT_TRUE(findings.empty())
        << trust::lint::formatText(findings, filesScanned);
}

} // namespace
