/**
 * @file
 * Tests for DNA encoding, FASTA/FASTQ parsing (including malformed
 * input), CIGAR machinery and alignment-record serialization.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/alignment.h"
#include "io/cigar.h"
#include "io/dna.h"
#include "io/fasta.h"
#include "io/vcf.h"

namespace gb {
namespace {

TEST(Dna, EncodeDecodeRoundTrip)
{
    const std::string s = "ACGTNacgtn";
    const auto codes = encodeDna(s);
    EXPECT_EQ(decodeDna(codes), "ACGTNACGTN");
    EXPECT_EQ(codes[0], 0);
    EXPECT_EQ(codes[3], 3);
    EXPECT_EQ(codes[4], kBaseN);
}

TEST(Dna, ReverseComplement)
{
    EXPECT_EQ(reverseComplement(std::string_view("ACGT")), "ACGT");
    EXPECT_EQ(reverseComplement(std::string_view("AACC")), "GGTT");
    EXPECT_EQ(reverseComplement(std::string_view("AN")), "NT");
    // Involution.
    const std::string s = "ACCGTTGAAN";
    EXPECT_EQ(reverseComplement(reverseComplement(s)), s);
}

TEST(Dna, Validation)
{
    EXPECT_TRUE(isValidDna("ACGTN"));
    EXPECT_TRUE(isValidDna(""));
    EXPECT_FALSE(isValidDna("ACGU"));
    EXPECT_FALSE(isValidDna("ACG T"));
}

TEST(Fasta, ParsesMultiRecordMultiLine)
{
    std::istringstream in(">r1 description\nACGT\nACGT\n\n>r2\nTTTT\n");
    const auto records = FastaReader::readAll(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "r1 description");
    EXPECT_EQ(records[0].seq, "ACGTACGT");
    EXPECT_EQ(records[1].name, "r2");
    EXPECT_EQ(records[1].seq, "TTTT");
}

TEST(Fasta, HandlesCrlf)
{
    std::istringstream in(">r1\r\nACGT\r\n");
    const auto records = FastaReader::readAll(in);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].seq, "ACGT");
}

TEST(Fasta, RejectsMalformed)
{
    {
        std::istringstream in("ACGT\n");
        EXPECT_THROW(FastaReader::readAll(in), InputError);
    }
    {
        std::istringstream in(">\nACGT\n");
        EXPECT_THROW(FastaReader::readAll(in), InputError);
    }
    {
        std::istringstream in(">r1\nAC-GT\n");
        EXPECT_THROW(FastaReader::readAll(in), InputError);
    }
    {
        std::istringstream in(">r1\n>r2\nACGT\n");
        EXPECT_THROW(FastaReader::readAll(in), InputError);
    }
    EXPECT_THROW(FastaReader::readFile("/nonexistent/path.fa"),
                 InputError);
}

TEST(Fasta, WriteReadRoundTrip)
{
    std::vector<SeqRecord> records{{"a", std::string(200, 'A'), ""},
                                   {"b", "ACGT", ""}};
    std::ostringstream out;
    writeFasta(out, records, 60);
    std::istringstream in(out.str());
    const auto parsed = FastaReader::readAll(in);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].seq, records[0].seq);
    EXPECT_EQ(parsed[1].seq, records[1].seq);
}

TEST(Fastq, ParsesAndRoundTrips)
{
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nTT\n+anything\n##\n");
    const auto records = FastqReader::readAll(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].qual, "IIII");
    EXPECT_EQ(records[1].seq, "TT");

    std::ostringstream out;
    writeFastq(out, records);
    std::istringstream in2(out.str());
    const auto reparsed = FastqReader::readAll(in2);
    ASSERT_EQ(reparsed.size(), 2u);
    EXPECT_EQ(reparsed[0].seq, records[0].seq);
    EXPECT_EQ(reparsed[1].qual, records[1].qual);
}

TEST(Fastq, RejectsMalformed)
{
    {
        std::istringstream in(">r1\nACGT\n+\nIIII\n");
        EXPECT_THROW(FastqReader::readAll(in), InputError);
    }
    {
        std::istringstream in("@r1\nACGT\n+\nIII\n"); // short quals
        EXPECT_THROW(FastqReader::readAll(in), InputError);
    }
    {
        std::istringstream in("@r1\nACGT\n");
        EXPECT_THROW(FastqReader::readAll(in), InputError);
    }
    {
        std::istringstream in("@r1\nACGT\nIIII\nIIII\n"); // missing +
        EXPECT_THROW(FastqReader::readAll(in), InputError);
    }
}

TEST(Cigar, ParseAndToString)
{
    const Cigar c = Cigar::parse("10M2I3D4S");
    ASSERT_EQ(c.units().size(), 4u);
    EXPECT_EQ(c.str(), "10M2I3D4S");
    EXPECT_EQ(c.refLen(), 13u);
    EXPECT_EQ(c.queryLen(), 16u);
}

TEST(Cigar, EmptyAndStar)
{
    EXPECT_TRUE(Cigar::parse("*").empty());
    EXPECT_TRUE(Cigar::parse("").empty());
    EXPECT_EQ(Cigar{}.str(), "*");
}

TEST(Cigar, PushMergesAdjacent)
{
    Cigar c;
    c.push(CigarOp::kMatch, 5);
    c.push(CigarOp::kMatch, 3);
    c.push(CigarOp::kInsertion, 1);
    c.push(CigarOp::kInsertion, 0); // no-op
    EXPECT_EQ(c.str(), "8M1I");
}

TEST(Cigar, RejectsMalformed)
{
    EXPECT_THROW(Cigar::parse("10"), InputError);
    EXPECT_THROW(Cigar::parse("M"), InputError);
    EXPECT_THROW(Cigar::parse("0M"), InputError);
    EXPECT_THROW(Cigar::parse("5Q"), InputError);
    EXPECT_THROW(Cigar::parse("999999999999M"), InputError);
}

TEST(Alignment, ValidateChecksLengths)
{
    AlnRecord rec;
    rec.qname = "r";
    rec.cigar = Cigar::parse("4M");
    rec.seq = "ACG";
    EXPECT_THROW(rec.validate(), InputError);
    rec.seq = "ACGT";
    rec.validate();
    rec.qual = "II";
    EXPECT_THROW(rec.validate(), InputError);
}

TEST(Alignment, SerializationRoundTrip)
{
    std::vector<AlnRecord> records;
    AlnRecord a;
    a.qname = "read1";
    a.pos = 41;
    a.mapq = 60;
    a.reverse = true;
    a.cigar = Cigar::parse("3M1I2M");
    a.seq = "ACGTAC";
    a.qual = "IIIIII";
    records.push_back(a);

    std::ostringstream out;
    writeAlignments(out, records);
    std::istringstream in(out.str());
    const auto parsed = readAlignments(in);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].qname, "read1");
    EXPECT_EQ(parsed[0].pos, 41u);
    EXPECT_TRUE(parsed[0].reverse);
    EXPECT_EQ(parsed[0].cigar.str(), "3M1I2M");
    EXPECT_EQ(parsed[0].seq, a.seq);
    EXPECT_EQ(parsed[0].qual, a.qual);
}

TEST(Alignment, ReadRejectsShortLines)
{
    std::istringstream in("only\tthree\tfields\n");
    EXPECT_THROW(readAlignments(in), InputError);
}

TEST(Vcf, WriteReadRoundTrip)
{
    std::vector<VcfRecord> records;
    records.push_back({"chr1", 99, 'A', 'C', 50.0, true, 0.47});
    records.push_back({"chr1", 200, 'G', 'T', 60.0, false, 0.99});
    std::ostringstream out;
    writeVcf(out, records, "chr1", 10'000);
    EXPECT_NE(out.str().find("##fileformat=VCFv4.2"),
              std::string::npos);
    EXPECT_NE(out.str().find("\t100\t"), std::string::npos); // 1-based

    std::istringstream in(out.str());
    const auto parsed = readVcf(in);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].pos, 99u);
    EXPECT_EQ(parsed[0].ref, 'A');
    EXPECT_EQ(parsed[0].alt, 'C');
    EXPECT_TRUE(parsed[0].heterozygous);
    EXPECT_NEAR(parsed[0].allele_fraction, 0.47, 1e-6);
    EXPECT_FALSE(parsed[1].heterozygous);
}

TEST(Vcf, RejectsMalformed)
{
    std::istringstream short_line("chr1\t100\t.\tA\n");
    EXPECT_THROW(readVcf(short_line), InputError);
    std::istringstream indel(
        "chr1\t100\t.\tAT\tA\t50\tPASS\tAF=0.5\tGT\t0/1\n");
    EXPECT_THROW(readVcf(indel), InputError);
    std::istringstream zero_pos(
        "chr1\t0\t.\tA\tC\t50\tPASS\tAF=0.5\tGT\t0/1\n");
    EXPECT_THROW(readVcf(zero_pos), InputError);
    // AF must be a whole, finite number in [0, 1].
    for (const char* af : {"abc", "0.5x", "nan", "7", "-0.5", ""}) {
        std::istringstream bad_af("chr1\t100\t.\tA\tC\t50\tPASS\tAF=" +
                                  std::string(af) + "\tGT\t0/1\n");
        EXPECT_THROW(readVcf(bad_af), InputError) << "AF=" << af;
    }
    std::istringstream multi_info(
        "chr1\t100\t.\tA\tC\t50\tPASS\tAF=0.25;DP=30\tGT\t0/1\n");
    EXPECT_DOUBLE_EQ(readVcf(multi_info).at(0).allele_fraction, 0.25);
}

TEST(Alignment, EndPos)
{
    AlnRecord rec;
    rec.qname = "r";
    rec.pos = 10;
    rec.cigar = Cigar::parse("5M2D3M2I");
    rec.seq = std::string(10, 'A');
    EXPECT_EQ(rec.endPos(), 20u);
}

} // namespace
} // namespace gb
