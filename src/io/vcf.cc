#include "io/vcf.h"

#include <charconv>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

namespace gb {

void
writeVcf(std::ostream& out, const std::vector<VcfRecord>& records,
         const std::string& reference_name, u64 reference_length)
{
    out << "##fileformat=VCFv4.2\n"
        << "##source=genomicsbench\n"
        << "##contig=<ID=" << reference_name
        << ",length=" << reference_length << ">\n"
        << "##INFO=<ID=AF,Number=1,Type=Float,Description=\"Allele "
           "fraction\">\n"
        << "##FORMAT=<ID=GT,Number=1,Type=String,Description=\""
           "Genotype\">\n"
        << "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t"
           "sample\n";
    for (const auto& rec : records) {
        out << rec.chrom << '\t' << rec.pos + 1 << "\t.\t" << rec.ref
            << '\t' << rec.alt << '\t' << std::fixed
            << std::setprecision(1) << rec.qual << "\tPASS\tAF="
            << std::setprecision(3) << rec.allele_fraction
            << "\tGT\t" << (rec.heterozygous ? "0/1" : "1/1") << '\n';
    }
}

std::vector<VcfRecord>
readVcf(std::istream& in)
{
    std::vector<VcfRecord> out;
    std::string line;
    u64 line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        VcfRecord rec;
        std::string id, filter, info, format, sample, ref, alt;
        u64 pos1 = 0;
        if (!(fields >> rec.chrom >> pos1 >> id >> ref >> alt >>
              rec.qual >> filter >> info >> format >> sample)) {
            throw InputError("VCF: short record at line " +
                             std::to_string(line_no));
        }
        requireInput(pos1 >= 1, "VCF: POS must be >= 1");
        requireInput(ref.size() == 1 && alt.size() == 1,
                     "VCF reader: only SNV records supported");
        rec.pos = pos1 - 1;
        rec.ref = ref[0];
        rec.alt = alt[0];
        rec.heterozygous = sample == "0/1";
        const auto af = info.find("AF=");
        if (af != std::string::npos) {
            // The whole value up to the next ';' must be a fraction;
            // NaN fails the range test.
            const size_t begin = af + 3;
            const std::string text =
                info.substr(begin, info.find(';', begin) - begin);
            const char* end = text.data() + text.size();
            const auto [ptr, ec] =
                std::from_chars(text.data(), end, rec.allele_fraction);
            requireInput(ec == std::errc() && ptr == end &&
                             rec.allele_fraction >= 0.0 &&
                             rec.allele_fraction <= 1.0,
                         "VCF: bad AF value '" + text + "' at line " +
                             std::to_string(line_no));
        }
        out.push_back(rec);
    }
    return out;
}

} // namespace gb
