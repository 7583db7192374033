"""Byte-identity guard for the CLI.

Each case is one invocation, its exit code and the sha256 of its stdout.
The table covers every command in every format it accepts, every sweep
metric, histograms with and without ``--normalize``, bases without a fixed
point, the bracketed numeral form of bases above 10, and usage errors.  A
change to any output byte fails here; an intended change re-records the
hash and says why in CHANGES.md.
"""

import hashlib

import pytest

from kaprekar4.cli import main

CASES = {
    "trajectory --base 10 --input 889 --format text":
        (0, "ae5b97a0bc384e94b266c96507b7718be400195ac88c9556b8689cb40d537310"),
    "trajectory --base 10 --input 889 --format json":
        (0, "c5e4133d6184840a653ab437dfb284cc8ebeb821f3515c23ba1d2e6eed48421b"),
    "trajectory --base 10 --digits 5,5,5,5 --format text":
        (0, "acf94af54a690af8b68be3d159181e910474e9a91471f5afc786af5402ad745f"),
    "trajectory --base 10 --digits 5,5,5,5 --format json":
        (0, "037e8c9d3850c8e8b44bb3e4d6bfcb9d8d024be989f074a788f7469a84d85033"),
    "trajectory --base 20 --input 123456 --format text":
        (0, "fb76315878fb6ce4b0e23738c876cefb5976d5c633b5a7632295e0e33e98d8d5"),
    "trajectory --base 20 --input 123456 --format json":
        (0, "b9caad6f457dbb37a8d61e4ac2c685f32d614bcb09d8e7c179549db851408530"),
    "trajectory --base 20 --input 97508 --format text":
        (0, "4be1ae0e34f9154f75896f066cbd485c2d5a81aed6edaf9cb2119235ad9465c2"),
    "trajectory --base 20 --input 97508 --format json":
        (0, "c20e0ef8b9a5aa250f3b882eee563c60acd4d1235cdb1182dd8891532fbceb38"),
    "trajectory --base 40 --digits 1,2,3,39 --format text":
        (0, "3302a7df13aec9ed5e3a47d9857762d4bd808408c21d795fead20895b8751be1"),
    "trajectory --base 40 --digits 1,2,3,39 --format json":
        (0, "22b976d239a010d60acadea1f9f6a1d3a56706243d72c149e0965a2d1c735b2f"),
    "trajectory --base 7 --input 1000 --format text":
        (0, "0850712bd870e6eaad2e875382936006a3703f5e6d604b3f6f01049de1ea1b3a"),
    "trajectory --base 7 --input 1000 --format json":
        (0, "212d34413a94e058da13b6e0efd421586396568148a7836ca8ba45a0f1232273"),
    "trajectory --base 10 --input 889 --max-steps 1 --format text":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "trajectory --base 10 --input 889 --max-steps 1 --format json":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fixed-points --base 2 --format text":
        (0, "700a0cb5d8d320cf1aaa6682d916c80cc746c346c5b63b60bd99109f0f647848"),
    "fixed-points --base 2 --format json":
        (0, "6c2b4a3db624851ac7bc01918d565ee73712750713bb5d74853352af351b0c83"),
    "fixed-points --base 2 --format csv":
        (0, "bd7a98fd1d7f7e293288597e4c9fa825e460ae5fb68387571a0abba144e22c62"),
    "fixed-points --base 4 --format text":
        (0, "9d23983bd932de5edc3fb64d276fb5d89e76fefdfd9e6524dfa5426317678b5d"),
    "fixed-points --base 4 --format json":
        (0, "e56c77fe79919ae503d9cb02620bdf5014fdd0b30058def4b7bd9a8ede6008db"),
    "fixed-points --base 4 --format csv":
        (0, "f7ccf2da20a6b1761d0f14971de4a1d6b23e25e0bd28186a44ce479839c5ab49"),
    "fixed-points --base 5 --format text":
        (0, "1f7d90370fa024e799df4860ff99c479cb0edbd6974691cec0316084d607ed11"),
    "fixed-points --base 5 --format json":
        (0, "90677e3525133ca6f6fe1e6aeb5243f8ef051fbfab9a258523b56375a7edd464"),
    "fixed-points --base 5 --format csv":
        (0, "72bf85bc2f0e38d035207cca4b6e073307ead6108d704fecf9e13df5c379a006"),
    "fixed-points --base 7 --format text":
        (0, "180605928a9f461d926bdfe132aebf27da886d2509b18f7e82446eb74afc0b07"),
    "fixed-points --base 7 --format json":
        (0, "f10023a941a568af257002f33ac3f089f0ea792077132fde25c643222aed6acb"),
    "fixed-points --base 7 --format csv":
        (0, "239d24a07d01dc1bcb9db8596ec8a000629dd687642bb5a30ec5dd45a4c06e2b"),
    "fixed-points --base 10 --format text":
        (0, "1a76d3023deb43fa4f9e1d7916b3501ddac656528718ca6ef1beb703d9018dac"),
    "fixed-points --base 10 --format json":
        (0, "fba830a0f2b729367e2474f0563b61673bd07bf0f1d8729cd6b1eb0b57d5667a"),
    "fixed-points --base 10 --format csv":
        (0, "974998a497bf68099d8af487a427f72848d38b601659425af9fb85754a7d1d52"),
    "fixed-points --base 20 --format text":
        (0, "915e2b13c5d1f02ea472ed6f52d9ad6a608363dc9fb422f6dee9f5889e9e09a6"),
    "fixed-points --base 20 --format json":
        (0, "75688debec72c5ca49349771493c252657de82a0c463271fbbfd53a3dc923ce4"),
    "fixed-points --base 20 --format csv":
        (0, "5f5ac1323de61c9b516302ccd0014edd775fe5263cbff2d3452eb9c29e530b3a"),
    "fixed-points --base 40 --format text":
        (0, "ea655e782fd43a22655fb0eaac7300c3450c68efbd0941526d32549ad415e17e"),
    "fixed-points --base 40 --format json":
        (0, "1294589769803aeb98d91b3bf99ee4b9b02f40aee2e4e4e49c4f638de8be5d60"),
    "fixed-points --base 40 --format csv":
        (0, "09cd7171c68ba1ae83530abf95dab1e72126299c1570af70ce9ea38e1be5de2f"),
    "sweep --bases 2..25 --metrics mb --format text --jobs 1":
        (0, "1930f63dcdae826c55621fa43d58eb48d2da68a435d44f68c3e037ec649919c7"),
    "sweep --bases 2..25 --metrics mb --format json --jobs 1":
        (0, "e564c999e53bcde0d9ffa1512593a2e3a17edee929ed3130af8e4a615843bdd3"),
    "sweep --bases 2..25 --metrics mb --format csv --jobs 1":
        (0, "441713078544597af498069f914fbe648d8fb54c03503a1e54bc5820b509b757"),
    "sweep --bases 2..25 --metrics cb --format text --jobs 1":
        (0, "6de02dfee59f82df782629ad9d8f81a4f7d08f96909ac3b6d5d66a156d0401d5"),
    "sweep --bases 2..25 --metrics cb --format json --jobs 1":
        (0, "78e58cc1b6a361c9aee908d9d35e7bf0a29aebdcc6fdb55f2dc6aa9c66531779"),
    "sweep --bases 2..25 --metrics cb --format csv --jobs 1":
        (0, "a33d879a70c26ddb4168a0ced9034dfe7b254ee21dd91ce7cbf5d8e1211cad01"),
    "sweep --bases 2..25 --metrics sbsize --format text --jobs 1":
        (0, "1f38a21765279e5bacefe22010f3b6b62d54963167a2082a26715d52952d2084"),
    "sweep --bases 2..25 --metrics sbsize --format json --jobs 1":
        (0, "c199a1799452ed6e25f47326f68cb47d60e15c6ede1fb4b11c6035420ebaa149"),
    "sweep --bases 2..25 --metrics sbsize --format csv --jobs 1":
        (0, "ddb30151c93bec7be4c84c0455e516ef11c1ec5e9d10e27fb5482863dc02374c"),
    "sweep --bases 2..25 --metrics fixedpoints --format text --jobs 1":
        (0, "41bd936425d2a05be0e343f5e0fa651c26a920097cc9915cc55c0d4bd8517e8b"),
    "sweep --bases 2..25 --metrics fixedpoints --format json --jobs 1":
        (0, "2ca9deecb61c5511f1bb2a1dfa00ad5593042884a2be0ecd62beb21688657e40"),
    "sweep --bases 2..25 --metrics fixedpoints --format csv --jobs 1":
        (0, "772fb66e44d1e5cb3d5e9111997ee875bb66d6f612e1b125ccbf66cfe9a671eb"),
    "sweep --bases 2..25 --format text --jobs 1":
        (0, "2429e56b4e4650a16675bd45167fb8d184da84563909fea8fc4da8de16d9dd36"),
    "sweep --bases 2..25 --format json --jobs 1":
        (0, "dc8c8a37357176cd8c89f9cab258a5d2ae53cce4cfe01b4df5b296b4d7dcf5da"),
    "sweep --bases 2..25 --format csv --jobs 1":
        (0, "25b384a0713a601dc6ad4a76e320a9d2306cc8cc1a0eb7ec32849dcce5625ee9"),
    "sweep --bases 2..25 --metrics mb,cb,sbsize,fixedpoints --format text --jobs 1":
        (0, "2429e56b4e4650a16675bd45167fb8d184da84563909fea8fc4da8de16d9dd36"),
    "sweep --bases 2..25 --metrics mb,cb,sbsize,fixedpoints --format json --jobs 1":
        (0, "aa1dc6c257a0a2f6404de63d2e05689071206d7619d95370020855ef47589443"),
    "sweep --bases 2..25 --metrics mb,cb,sbsize,fixedpoints --format csv --jobs 1":
        (0, "25b384a0713a601dc6ad4a76e320a9d2306cc8cc1a0eb7ec32849dcce5625ee9"),
    "histogram --base 2 --format text":
        (0, "1ed98efa1e970b6e038c2099eccfec62d9c40616ba8b4d98d141bd53fd2b7f60"),
    "histogram --base 2 --format json":
        (0, "c2847ce0469f485325159b10574dcdc6c9a18515989d476d66e7e78876cf6394"),
    "histogram --base 2 --format csv":
        (0, "baaac9b775ea9974c8da7d8715ac6a7c1e0ec3b93e6d5d88c1c0a599fef0d116"),
    "histogram --base 2 --normalize --format text":
        (0, "51093b8a0733cc65b591ed060943abed6a0c78f943de22ca4240cd7d9de28196"),
    "histogram --base 2 --normalize --format json":
        (0, "c8c6e18ec81669ec618c89997a6bd4046161b4adaeb40e0c2dc4b7f5120e5565"),
    "histogram --base 2 --normalize --format csv":
        (0, "c743b795b8fa6ee4686a7b0df7db4929a5e2e0861b61333688d8ca60dd09fc6c"),
    "histogram --base 4 --format text":
        (0, "e202e43484189c8fb2e5a0726138be09a46ad79dad5759d6434ffc80ac6a892f"),
    "histogram --base 4 --format json":
        (0, "102baa816036d699803dd70695ddd132bfd9f16137141d82a44d7a61ce555955"),
    "histogram --base 4 --format csv":
        (0, "9eb171d660d0475b05b34004823da2130441ccde105ca9e3d316e1dead03bbc4"),
    "histogram --base 4 --normalize --format text":
        (0, "4c0804decc4ef4d8618c54946196f4b4d08b453330d40cde9347ef6ca5147025"),
    "histogram --base 4 --normalize --format json":
        (0, "68f2d411c6fa85d6f8e57b397615de75eaafd4ff5e8d415c74ef79fc8aa0a49a"),
    "histogram --base 4 --normalize --format csv":
        (0, "c96895d021c9e268042bc02c691dc2cb0a509faeedb5e88b0561a802c2252710"),
    "histogram --base 5 --format text":
        (0, "47e1e97a785068ce4df345eafbbd4dff77d49267b0bf554cbf4706c80a840ef2"),
    "histogram --base 5 --format json":
        (0, "4153b4231a421e3e7bd11c54cf2deaa3dcbb8dd021aa537e2eb0fec9c60b0e3c"),
    "histogram --base 5 --format csv":
        (0, "1f3d38483ce0e9f1d1d63071636d77c1ef2aa2cefe30b22665a5d68e12c58118"),
    "histogram --base 5 --normalize --format text":
        (0, "2fc0892ea39f4af98029935a7c628a00d4503fe0c551d510893a85bb129d4945"),
    "histogram --base 5 --normalize --format json":
        (0, "0689f4303037ddee4fe801599e3394fcaf95f93bc3eefe9197da35e22c19c684"),
    "histogram --base 5 --normalize --format csv":
        (0, "4e60a0243fa0b7684f90c3e9b6fef7d3a6b21f0a003e18f705118c184f295407"),
    "histogram --base 10 --format text":
        (0, "fce494be41fb621edc9a0b5b532d66971fe1ee2df74375fb2014a0c1fac058c9"),
    "histogram --base 10 --format json":
        (0, "fc5d4c0a2f22042161b8ddb40e866f3d578a59625d6f05fe96eca4d2c9c088c9"),
    "histogram --base 10 --format csv":
        (0, "8ea0853040d5a2ee2ed3fdc1b107934080de095ee9fcd439cca9f8015b551f4c"),
    "histogram --base 10 --normalize --format text":
        (0, "c176e4f4ce0c98221fbe52810d8b571af24b0b2137f976793b05c2f292f17250"),
    "histogram --base 10 --normalize --format json":
        (0, "632a712ad103899898df30ec33df6856e3e7d1c8fc8b8594e2da9cd0584f3a8b"),
    "histogram --base 10 --normalize --format csv":
        (0, "dc343119932c8b72c160320c8b2639e366e7676e771b4b0d0dd5a52b6db8207e"),
    "histogram --base 40 --format text":
        (0, "b94d66248af8527703c8bc3a4cb88368559c92c8a60f269c19c196cc1751d872"),
    "histogram --base 40 --format json":
        (0, "725f9be471bb473ce9c43447f6aee81e49b96705fee0dacda81a92397f0a8daf"),
    "histogram --base 40 --format csv":
        (0, "4b577b04b8c0b8af6c57efe70fa394c43d1e81fef70031abb9219d648abc53f5"),
    "histogram --base 40 --normalize --format text":
        (0, "e7e5161cb80da40318560baff9607ca248c308bb5b9f1f976fb385c954a0b8cd"),
    "histogram --base 40 --normalize --format json":
        (0, "4ff897b992547a9204646eac8544f50a420e647b206dcaadd7a48fefea65955a"),
    "histogram --base 40 --normalize --format csv":
        (0, "5779605266fe8de779c1df51296701caabd19545d6ebbd4d6a9976713ddeeadb"),
    "histogram --base 6 --format text":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "histogram --base 6 --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "histogram --base 6 --format csv":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "histogram --base 6 --normalize --format text":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "histogram --base 6 --normalize --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "histogram --base 6 --normalize --format csv":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --bases 2..25 --depth formulas --format text --jobs 1":
        (0, "ef0ea4c23e2e4299dc46943de60a044c115a92b3530e9372fe3d82c7ab297835"),
    "verify --bases 2..25 --depth formulas --format json --jobs 1":
        (0, "e43f650ec804acae95f081171f6d4bcb6b4a0340ae58e7a5bb6b0b933ab4d70f"),
    "verify --bases 2..25 --depth deep --format text --jobs 1":
        (0, "cf1f46bed1cda0f8ee80d9f69a31cb7e23b344204a1cdd99f9b939d17fba876e"),
    "verify --bases 2..25 --depth deep --format json --jobs 1":
        (0, "d549813d653f5723d3f685b53e88e17df7091fa77f8cfbe1492c2bab78bff3ac"),
    "verify --bases 7..7 --depth formulas --format text --jobs 1":
        (0, "bcf728110935d798c91861a1a73a14615918dd1046a92c8adaa0345ec81dd9c0"),
    "verify --bases 7..7 --depth formulas --format json --jobs 1":
        (0, "d053598b455b4733f70f8463952ceea2ca32ae9504b6eb0ca681aa714e2a755b"),
    "verify --bases 7..7 --depth deep --format text --jobs 1":
        (0, "c7ef3a4a68e43bb85a9ab12175daa347162cc04fcddc9296a302cec2cf46779a"),
    "verify --bases 7..7 --depth deep --format json --jobs 1":
        (0, "36c3131468f01431e658c63d6def960fa3b5d0108a3ef059e9792f99532a3d1b"),
    "verify --bases 40..40 --depth formulas --format text --jobs 1":
        (0, "92cad00b9cf8a3203e718694c032f3494fb0e739387d6ac291a0d3db950814d0"),
    "verify --bases 40..40 --depth formulas --format json --jobs 1":
        (0, "638252ac7f927b5007c336b78da059135431e8b53df49503d675d5c9dd90e0c7"),
    "verify --bases 40..40 --depth deep --format text --jobs 1":
        (0, "4ff76c7d9bf37019308588b3a272fddc3448629b7c6d5eb3423d80c229594ea6"),
    "verify --bases 40..40 --depth deep --format json --jobs 1":
        (0, "ae52a6bc75fa13ff07a52c92a20a9279e0b5b90a200e8011542f86030b6fea09"),
    # n = 7, the one n = 3 (mod 4) base whose n >= 5 deep checks run here
    "verify --bases 640..640 --depth deep --format json --jobs 1":
        (0, "44840c3eb16ce9066bf7272fc6bbd05263cfcb548a2eb37341bc156007e23240"),
    "trajectory --base 20 --input 160000":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "trajectory --base 10 --digits 1,2,3,10":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sweep --bases 5..6 --metrics bogus":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sweep --bases 9..3":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --bases 1..4":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _case_id(argv: str) -> str:
    return argv.replace(" --", "/").replace(" ", "=")


@pytest.mark.parametrize("argv", list(CASES), ids=_case_id)
def test_cli_output_bytes(capsys, argv):
    code, digest = CASES[argv]
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
